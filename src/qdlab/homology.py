"""Exact homological algebra on the covering Delta-complex.

Everything here is combinatorial and exact regardless of the surface's
scalar mode: absolute and relative H_1 of the cover, the involution action
and its (-1)-eigenspaces, the intersection matrix J on the anti-invariant
absolute homology, and the wedge pairing

    wedge(x, y) = -x^T J^{-1} y

on period vectors, normalized so that sqrt(-1) * wedge(u, conj(u)) = 4*area
for the period vector u of the abelian differential upstairs.
``HomologyData`` keeps J^{-1} and the comparison map (relative-minus
coordinates of the absolute-minus cycles) also as sparse integer rows over
one denominator each.  An exact period vector (Gaussian-integer numerators
over one denominator, see ``periods``) is restricted through the comparison
rows and paired against the J^{-1} rows in Python ints, and only the result
becomes a QC.  Float vectors are summed by :func:`sparse_pairing` over the
nonzero Fraction entries of each row of J^{-1}.

H_1 bases come from a tree-cotree decomposition (Eppstein, SODA 2003;
Erickson-Whittlesey, SODA 2005), built with union-find on integers:

* A spanning forest T of the 1-skeleton, taken greedily in ascending
  edge-rep index.  For H_1 relative to Sigma_ub every Sigma_ub vertex is
  first identified with one ground node.  These are exactly the pivot
  columns of rref(d1) (of d1 with the Sigma_ub rows deleted), and the
  nullspace vector of each free column f is the fundamental cycle z_f of f
  in T, with coefficient +1 on f.
* A cycle is determined by its coefficients on the non-tree edges N, and a
  triangle boundary restricted to N is the coboundary of the dual graph on
  N.  So adding z_f (ascending f) to the span of the triangle boundaries and
  the z's kept so far enlarges it exactly when f is not a bridge of the dual
  graph on the edges of N not yet kept.  The rejected edges R therefore form
  the dual spanning forest built greedily in *descending* rep index, and
  the kept edges K = N - R index the basis {z_k}.  This is the basis the
  greedy row reduction (boundaries first, then the z_f) would choose.
* To express a cycle c, walk each cotree from its root triangle and pick
  the 2-chain a with (c - da)(g) = 0 on every cotree edge g; then
  c - da = sum over k in K of (c - da)(k) z_k.  Homology coordinates are
  unique, so this is the solution any exact solver returns, found in linear
  time.

The independent oracle for the wedge is the simplicial cup product of two
closed anti-invariant cochains, evaluated on the fundamental cycle.  Through
the barycentric subdivision (vertex / edge-midpoint / face-center types order
every small simplex) and the Alexander-Whitney product, with a local
potential phi_b of b on each triangle, it is

    cup(a, b) = sum over triangles, sum over its directed edges f of
                a(f) * (phi_b(center) - phi_b(midpoint of f)).

On a triangle with directed edges f1, f2, f3 and phi_b = 0, b1, b1 + b2 at
the corners tail(f1), tail(f2), tail(f3), the three differences are
(b1 + 2 b2)/6, -(2 b1 + b2)/6 and (b1 - b2)/6.  A closed cochain has
a3 = -a1 - a2, so the triangle's term collapses to (a1 b2 - a2 b1)/2 and

    cup(a, b) = 1/2 * sum over triangles of (a(f1) b(f2) - a(f2) b(f1)),

which is antisymmetric in (a, b).  That sum is what
:meth:`HomologyData.cup_product_pairing` computes.

The closed anti-invariant cochain with prescribed periods on a list of
cycles depends linearly on the periods, so each list is eliminated once
(:class:`_CochainMap`) and every later cochain is one sparse
matrix-vector product.

Chains are Python ints while :class:`HomologyData` is built.  Boundaries,
forest cycles and the involution are +-1 chains, and i_* is an integer
matrix.  A minus-basis cycle is kept as integer numerators over one
denominator 2d, where d clears the denominators of its nullspace vector.
Every matrix handed to ``rref`` is an integer matrix, equal up to row
scaling to the rational one, which leaves the RREF unchanged.  The
intersection form G is the integer cup sum of the dual cocycles' numerators,
divided once.  Fractions appear only at the public boundary: the bases, i_*,
the comparison map, J and Jinv hold Fraction entries, and the cochain map's
coefficients are the Fractions ``rref`` returns.  The cup-product oracle
(:func:`wedge_cup_oracle`) pairs QC coordinates through the cochain map, an
arithmetic route independent of the integer wedge.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import lcm

# the builtin module, not hashlib: hashlib maps OpenSSL into the process
from _sha1 import sha1

from .cover import DoubleCover
from .errors import (
    BasisMismatch,
    InconsistentFunctional,
    SingularJ,
)
from .exact import (
    QC,
    QC_I,
    integer_vector,
    is_zero,
    mat_inverse,
    nullspace,
    rref,
)

F0 = Fraction(0)
F1 = Fraction(1)


def _fractions(vec, den=1):
    """The public form of an integer chain: ``vec / den`` as Fractions."""
    return [Fraction(x, den) if x else F0 for x in vec]


def _find(parent, x):
    """Union-find root of x; roots are the nodes absent from ``parent``."""
    while x in parent:
        up = parent[x]
        if up in parent:
            parent[x] = parent[up]
        x = up
    return x


def _root_forest(adjacency, nodes):
    """Parent links of a forest given as node -> [(neighbour, edge), ...],
    rooted at the first node (in ``nodes`` order) of each component.
    Returns [(child, parent, edge), ...] with every parent before its child."""
    seen = set()
    links = []
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            p = stack.pop()
            for q, i in adjacency.get(p, ()):
                if q not in seen:
                    seen.add(q)
                    links.append((q, p, i))
                    stack.append(q)
    return links


class _CycleBasis:
    """H_1 basis of the cover from a spanning forest and a dual cotree.

    ``node`` maps each cover vertex to its node of the 1-skeleton: the
    identity for absolute homology, Sigma_ub collapsed to one ground node
    for homology relative to Sigma_ub.  ``ends[i]`` is (tail, head) of edge
    rep i and ``sides[i]`` the triangles holding it with boundary
    coefficient +1 and -1.
    """

    def __init__(self, node, ends, sides, ntri):
        self._node = node
        self._ends = ends
        self._sides = sides
        nr = len(ends)

        # spanning forest, greedy in ascending rep index
        parent = {}
        tree_adj = {}
        nontree = []
        for i, (u, v) in enumerate(ends):
            a, b = _find(parent, node[u]), _find(parent, node[v])
            if a == b:
                nontree.append(i)
                continue
            parent[a] = b
            tree_adj.setdefault(node[u], []).append((node[v], i))
            tree_adj.setdefault(node[v], []).append((node[u], i))
        # up[n] = (parent node, edge, sign): the step n -> parent is sign * edge
        up = {}
        for child, par, i in _root_forest(tree_adj, sorted(set(node.values()))):
            up[child] = (par, i, 1 if node[ends[i][0]] == child else -1)

        # dual cotree on the non-tree edges, greedy in descending rep index
        parent = {}
        cotree_adj = {}
        kept = []
        for g in reversed(nontree):
            tp, tm = sides[g]
            a, b = _find(parent, tp), _find(parent, tm)
            if a == b:
                kept.append(g)
                continue
            parent[a] = b
            cotree_adj.setdefault(tp, []).append((tm, g))
            cotree_adj.setdefault(tm, []).append((tp, g))
        self._kept = kept[::-1]
        # a[child] = a[parent] + sign * c[g] makes (c - da)(g) vanish
        self._peel = [(t, p, g, 1 if sides[g][0] == t else -1)
                      for t, p, g in _root_forest(cotree_adj, range(ntri))]
        self._ntri = ntri

        self.basis = []   # integer chains
        for f in self._kept:
            z = [0] * nr
            z[f] = 1
            for n, sg in ((node[ends[f][1]], 1), (node[ends[f][0]], -1)):
                while n in up:
                    n, i, step = up[n]
                    z[i] += sg * step
            self.basis.append(z)

    def coords(self, cyc):
        """Coordinates of a 1-cycle on :attr:`basis`, modulo boundaries, in
        the entry type of ``cyc`` (ints for an integer chain)."""
        bd = {}
        for i, x in enumerate(cyc):
            if x:
                u, v = self._ends[i]
                bd[self._node[v]] = bd.get(self._node[v], 0) + x
                bd[self._node[u]] = bd.get(self._node[u], 0) - x
        if any(bd.values()):
            raise InconsistentFunctional("vector is not a cycle of this complex")
        a = [0] * self._ntri
        for t, p, g, sg in self._peel:
            a[t] = a[p] + sg * cyc[g]
        return [cyc[k] - (a[self._sides[k][0]] - a[self._sides[k][1]])
                for k in self._kept]


class _CochainMap:
    """Cycle periods -> closed anti-invariant cochain, for one list of cycles.

    The unknowns are the pair variables, one per involution orbit of edge
    reps; the constraint rows are the closedness rows (one triangle boundary
    per orbit) followed by one row per cycle.  A single ``rref`` of
    [constraint rows | unit columns on the cycle rows] factors the solve:
    pivot choice reads only the left block, so each pivot row's right block
    is the linear map from the cycle values to that pair variable, and each
    row whose left block vanished is a consistency condition on the values.
    The left block lists the pair variables in descending order, so the free
    ones are the lowest-index ones.  Holds plain lists only, no reference
    to the homology it came from.
    """

    __slots__ = ("_npair", "_ncycles", "_rows", "_checks", "_rep_coeff")

    def __init__(self, npair, constraint_rows, cycle_rows, rep_coeff):
        """Rows are integer rows over the ``npair`` pair variables; each
        cycle row comes as (numerators, d), the cycle's row times d, so its
        unit column holds d.  ``rep_coeff[i]`` is (pair position, +-1) of
        edge rep i."""
        nc = len(cycle_rows)
        R, pivots = rref(
            [row[::-1] + [0] * nc for row in constraint_rows]
            + [row[::-1] + [d if j == k else 0 for j in range(nc)]
               for k, (row, d) in enumerate(cycle_rows)])
        nleft = sum(1 for pc in pivots if pc < npair)

        def sparse(row):
            return [(k, x) for k, x in enumerate(row[npair:]) if x]

        self._npair = npair
        self._ncycles = nc
        # (pair position, [(cycle index, coefficient), ...])
        self._rows = [(npair - 1 - pc, sparse(R[r]))
                      for r, pc in enumerate(pivots[:nleft])]
        self._checks = [chk for chk in map(sparse, R[nleft:]) if chk]
        self._rep_coeff = [(pos, F1 if sg > 0 else -F1) for pos, sg in rep_coeff]

    def __call__(self, values):
        """The cochain taking ``values`` on the cycles (Fraction, QC or
        complex), as values per edge rep (a dict).  Raises
        :class:`InconsistentFunctional` when no closed cochain takes them.
        Non-pivot pair variables are zero: the normal form of
        :meth:`HomologyData.anti_invariant_cochain`."""
        if len(values) != self._ncycles:
            raise BasisMismatch(f"{self._ncycles} cycles need as many values")
        zero = values[0] * 0 if values else F0

        def apply(row):
            s = zero
            for k, x in row:
                s = s + x * values[k]
            return s

        if not all(is_zero(apply(chk)) for chk in self._checks):
            raise InconsistentFunctional("no closed cochain matches the functional")
        w = [zero] * self._npair
        for pos, row in self._rows:
            w[pos] = apply(row)
        return {i: fac * w[pos] for i, (pos, fac) in enumerate(self._rep_coeff)}

    def integer_columns(self):
        """The cochains taking 1 on one cycle and 0 on the others, each as
        (numerators per edge rep, d): the columns of the map over d."""
        if self._checks:
            raise InconsistentFunctional("no closed cochain matches the functional")
        cols = [[0] * self._npair for _ in range(self._ncycles)]
        for pos, row in self._rows:
            for k, x in row:
                cols[k][pos] = x
        out = []
        for w in cols:
            w, d = integer_vector(w)
            out.append(([w[pos] if fac > 0 else -w[pos]
                         for pos, fac in self._rep_coeff], d))
        return out


class HomologyData:
    """Chain-level data of a double cover; immutable after construction
    (the relative cochain map is built on first use, see
    :meth:`cocycle_functional`).

    Nothing here reads an edge vector: the data is a function of the
    cover's triangles and gluing and of the lifted Sigma_ub, which is what
    ``basis_tag`` hashes.  Of the cover only ``cover_surface`` is kept,
    never the :class:`DoubleCover` or its base: the base surface holds its
    homology (see :func:`homology_data`), and a reference back to it would
    make a reference cycle that only the cyclic garbage collector frees.
    """

    def __init__(self, cover: DoubleCover):
        c = cover.cover_surface
        self.csurf = c

        # geometric cover edges: representative = smaller id of a glued pair
        reps = []
        rep_index = {}
        for e in c.edges():
            f = c.glue[e]
            r = min(e, f)
            if r not in rep_index:
                rep_index[r] = len(reps)
                reps.append(r)
        self.reps = reps
        self.rep_index = rep_index

        self.vertices = c.vertices()
        nr, nt = len(reps), len(c.triangles)

        self._boundaries = [[0] * nr for _ in range(nt)]
        for t in range(nt):
            for f in c.triangles[t]:
                i, sg = self._chain(f)
                self._boundaries[t][i] += sg

        lifted = cover.lifted_sigma()
        self.sigma_ub_vertices = sorted(lifted["sigma_ub"])

        # involution as a signed permutation on edge reps
        self._iota_edge = []
        for r in reps:
            i, sg = self._chain(cover.involution_edge(r))
            self._iota_edge.append((i, sg))

        ends = [(c.vertex_at_tail(r), c.vertex_at_head(r)) for r in reps]
        sides = [(c.triangle_of(r), c.triangle_of(c.glue[r])) for r in reps]
        ground = min(self.sigma_ub_vertices, default=None)
        self._abs_h1 = _CycleBasis({v: v for v in self.vertices}, ends, sides, nt)
        self._rel_h1 = _CycleBasis(
            {v: ground if v in lifted["sigma_ub"] else v for v in self.vertices},
            ends, sides, nt)
        self.abs_basis = [_fractions(z) for z in self._abs_h1.basis]
        self.rel_basis = [_fractions(z) for z in self._rel_h1.basis]

        iota_abs = self._iota_star(self._abs_h1)
        iota_rel = self._iota_star(self._rel_h1)
        self.iota_abs = [_fractions(row) for row in iota_abs]
        self.iota_rel = [_fractions(row) for row in iota_rel]

        # minus bases as (integer numerators, denominator)
        self._abs_minus = self._minus_basis(self._abs_h1.basis, iota_abs)
        self._rel_minus = self._minus_basis(self._rel_h1.basis, iota_rel)
        self.abs_minus_basis = [_fractions(z, d) for z, d in self._abs_minus]
        self.rel_minus_basis = [_fractions(z, d) for z, d in self._rel_minus]

        self.comparison = self._comparison_map()

        self._pairs, self._pair_coeff = self._pair_structure()
        # one triangle per involution orbit: their boundaries are the
        # closedness rows of the anti-invariant cochain systems
        self._orbit_triangles = []
        seen_tris = set()
        for t in range(nt):
            if t not in seen_tris:
                seen_tris.update((t, cover.involution_triangle(t)))
                self._orbit_triangles.append(t)
        # cup product terms: (rep of f1, rep of f2) per triangle, swapped
        # when the two chain signs differ
        self._cup_terms = []
        for f1, f2, _ in c.triangles:
            (i, si), (j, sj) = self._chain(f1), self._chain(f2)
            self._cup_terms.append((i, j) if si == sj else (j, i))
        self._abs_map = self._cochain_map(self._abs_minus)
        self._rel_map = None
        m = len(self.abs_minus_basis)
        # the dual cocycles, the columns of the absolute-minus cochain map,
        # as integer numerators over d_i; their cup product over 2 d_i d_j
        duals = self._abs_map.integer_columns()
        G = [[F0] * m for _ in range(m)]
        for i, (a, da) in enumerate(duals):
            for j in range(i + 1, m):
                b, db = duals[j]
                cup = sum(a[p] * b[q] - a[q] * b[p] for p, q in self._cup_terms)
                G[i][j] = Fraction(cup, 2 * da * db)
                G[j][i] = -G[i][j]
        Ginv = mat_inverse(G) if m else []
        if m and Ginv is None:
            raise SingularJ("degenerate intersection pairing on H1^-")
        self.J = [[-Ginv[i][j] for j in range(m)] for i in range(m)] if m else []
        self.Jinv = [[-G[i][j] for j in range(m)] for i in range(m)] if m else []
        self._jinv_rows = sparse_rows(self.Jinv)
        # the same two maps as sparse integer rows over one denominator each
        self._comparison_int = _integer_rows(self.comparison)
        self._jinv_int = _integer_rows(self.Jinv)

        self.basis_tag = self._make_tag(cover.base)

    # -- chains ---------------------------------------------------------------
    def _chain(self, directed_edge):
        """Directed cover edge -> (rep index, sign)."""
        f = self.csurf.glue[directed_edge]
        r = min(directed_edge, f)
        return self.rep_index[r], (1 if directed_edge == r else -1)

    def iota_chain(self, vec):
        """Push a 1-chain (rep coordinates) through the involution; an
        integer chain stays integer."""
        out = [0] * len(self.reps)
        for i, x in enumerate(vec):
            if x:
                j, sg = self._iota_edge[i]
                out[j] += sg * x
        return out

    # -- homology bases ---------------------------------------------------------
    def _iota_star(self, h1):
        """The integer matrix of iota_* on ``h1``'s basis."""
        cols = [h1.coords(self.iota_chain(b)) for b in h1.basis]
        n = len(h1.basis)
        m = [[cols[j][i] for j in range(n)] for i in range(n)]
        # involutivity check: iota*^2 = id
        for i in range(n):
            for j in range(n):
                if sum(m[i][k] * m[k][j] for k in range(n)) != (i == j):
                    raise InconsistentFunctional("involution matrix is not an involution")
        return m

    def _minus_basis(self, basis, iota):
        """The (-1)-eigenspace of ``iota`` on the integer ``basis``: one
        anti-invariant cycle per nullspace vector k of iota + 1, as
        (numerators, 2d) where d clears the denominators of k."""
        n = len(basis)
        aplusid = [[iota[i][j] + (i == j) for j in range(n)] for i in range(n)]
        out = []
        for k in nullspace(aplusid):
            k, d = integer_vector(k)
            cyc = [0] * len(self.reps)
            for j, coef in enumerate(k):
                if coef:
                    cyc = [a + coef * b for a, b in zip(cyc, basis[j])]
            anti = [a - b for a, b in zip(cyc, self.iota_chain(cyc))]
            for a, b in zip(anti, self.iota_chain(anti)):
                if a != -b:
                    raise InconsistentFunctional("failed to symmetrize eigenvector")
            out.append((anti, 2 * d))
        return out

    def _comparison_map(self):
        """Columns: relative-minus coordinates of each absolute-minus basis cycle."""
        if not self._abs_minus:
            return []
        # one elimination of [relative-minus | absolute-minus] in relative
        # coordinates, every row scaled by the common denominator
        cols = self._rel_minus + self._abs_minus
        den = lcm(*(d for _, d in cols))
        coords = [[x * (den // d) for x in self._rel_h1.coords(z)] for z, d in cols]
        m = len(self._rel_minus)
        R, pivots = rref([[x[r] for x in coords]
                          for r in range(len(self.rel_basis))])
        if pivots != list(range(m)):
            raise InconsistentFunctional("comparison map undefined")
        return [[R[j][m + i] for j in range(m)] for i in range(len(self._abs_minus))]

    def _make_tag(self, base):
        payload = {
            "triangles": [list(t) for t in base.triangles],
            "gluings": sorted((min(e, f), max(e, f), base.sign[e])
                              for e, f in base.glue.items()),
            "marked": sorted(base.marked),
            "sigma_ub": self.sigma_ub_vertices,
            "mode": base.mode,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return "hom1-" + sha1(blob).hexdigest()[:16]

    # -- ranks ------------------------------------------------------------------
    def rank_abs(self):
        return len(self.abs_basis)

    def rank_rel(self):
        return len(self.rel_basis)

    def rank_abs_minus(self):
        return len(self.abs_minus_basis)

    def rank_rel_minus(self):
        return len(self.rel_minus_basis)

    # -- cochain machinery --------------------------------------------------------
    def _pair_structure(self):
        """Involution orbit pairs of edge reps for anti-invariant cochains.

        Returns (pairs, coeff) where pairs is a list of rep indices (one per
        orbit) and coeff maps every rep index to (pair position, factor) with
        alpha(rep_i) = factor * w_pair.
        """
        pairs = []
        coeff = {}
        for i in range(len(self.reps)):
            if i in coeff:
                continue
            j, sg = self._iota_edge[i]
            if j == i:
                raise InconsistentFunctional("involution fixes a geometric edge")
            pos = len(pairs)
            pairs.append(i)
            coeff[i] = (pos, 1)
            # alpha(iota# rep_i) = -alpha(rep_i): iota#(rep_i) = sg * rep_j
            coeff[j] = (pos, -sg)
        return pairs, coeff

    def _cochain_row(self, chain_vec):
        """Rewrite a functional row over edge reps into pair variables."""
        row = [0] * len(self._pairs)
        for i, x in enumerate(chain_vec):
            if x:
                pos, sg = self._pair_coeff[i]
                row[pos] += sg * x
        return row

    def _cochain_map(self, cycles):
        """The cochain map of integer ``cycles``, each (numerators, d)."""
        return _CochainMap(
            len(self._pairs),
            [self._cochain_row(self._boundaries[t]) for t in self._orbit_triangles],
            [(self._cochain_row(z), d) for z, d in cycles],
            [self._pair_coeff[i] for i in range(len(self.reps))])

    def anti_invariant_cochain(self, cycles, values):
        """Closed anti-invariant 1-cochain with prescribed cycle periods.

        ``cycles`` are 1-cycles in rep coordinates, ``values`` their required
        periods (Fraction or QC).  The unknowns are the pair variables, one
        per involution orbit of edge reps; the constraint rows are the
        boundaries of one triangle per orbit (closedness) and the cycles.
        Normal form: with the pair variables eliminated in descending index
        order, the cochain is zero on every non-pivot pair variable.  These
        are the greedy lowest-index pair variables: variable k is zero
        exactly when no combination of the constraint rows is supported on
        variables 0..k with a nonzero entry at k.  Raises
        :class:`InconsistentFunctional` when no closed cochain takes the
        values.  Returns values per edge rep (a dict).  For the minus bases,
        :meth:`cocycle_functional` reuses one elimination across calls.
        """
        return self._cochain_map(map(integer_vector, cycles))(values)

    def cocycle_functional(self, values, space="absolute"):
        """Closed anti-invariant cochain realizing a functional on a minus
        basis: :meth:`anti_invariant_cochain` of that basis.  The absolute
        map is built with the homology, the relative one on first use."""
        if space == "absolute":
            return self._abs_map(values)
        if self._rel_map is None:
            self._rel_map = self._cochain_map(self._rel_minus)
        return self._rel_map(values)

    def cochain_on_edge(self, cochain, directed_edge):
        i, sg = self._chain(directed_edge)
        return sg * cochain[i]

    # -- cup product oracle ----------------------------------------------------
    def cup_product_pairing(self, alpha, beta):
        """Simplicial cup product of two closed cochains (values per edge
        rep) on the fundamental cycle of the cover, in the closed form of
        the module docstring."""
        total = None
        for i, j in self._cup_terms:
            t = alpha[i] * beta[j] - alpha[j] * beta[i]
            total = t if total is None else total + t
        return F0 if total is None else total / 2


def homology_data(cover: DoubleCover) -> HomologyData:
    """The homology of ``cover``, built once per base surface.

    Every double cover of one base surface has the same combinatorics, so
    the first :class:`HomologyData` built is kept on the base surface and
    returned for each later cover of it.  The surface owns it, so it is freed
    with the surface.
    """
    base = cover.base
    if base._homology is None:
        base._homology = HomologyData(cover)
    return base._homology


# ---------------------------------------------------------------------------
# wedge and Hermitian pairings on period vectors
# ---------------------------------------------------------------------------

def _checked_basis(h: HomologyData, x):
    """The minus basis of ``x``'s space, after checking that ``x`` is a
    period vector on it."""
    from .periods import PeriodVector

    if not isinstance(x, PeriodVector):
        raise BasisMismatch("wedge expects PeriodVector inputs")
    if x.basis_tag != h.basis_tag:
        raise BasisMismatch("period vector bound to a different basis")
    basis = h.abs_minus_basis if x.space == "absolute" else h.rel_minus_basis
    if x._length() != len(basis):
        raise BasisMismatch(f"{x.space} vector has {x._length()} coordinates, "
                            f"rank is {len(basis)}")
    return basis


def _absolute_coords(h: HomologyData, x):
    _checked_basis(h, x)
    if x.space == "absolute":
        return list(x.coords)
    # restrict a relative functional along the comparison map
    out = []
    for i in range(len(h.abs_minus_basis)):
        coefs = h.comparison[i]
        s = None
        for j, cf in enumerate(coefs):
            if is_zero(cf):
                continue
            term = x.coords[j] * cf
            s = term if s is None else s + term
        out.append(F0 if s is None else s)
    return out


def _integer_rows(matrix):
    """A Fraction matrix M as (rows, d): the nonzero entries (column,
    numerator) of each row of the integer matrix d*M, d the lcm of the
    denominators."""
    d = reduce(lcm, (x.denominator for row in matrix for x in row), 1)
    return [[(j, x.numerator * (d // x.denominator)) for j, x in enumerate(row) if x]
            for row in matrix], d


def _absolute_numerators(h: HomologyData, x):
    """``x`` on the absolute minus basis as (Gaussian-integer numerators, d),
    a relative vector restricted through the integer comparison rows; None
    for a vector without numerators (a float vector)."""
    _checked_basis(h, x)
    num = x._num
    if num is None or x.space == "absolute":
        return None if num is None else (num, x._den)
    rows, d = h._comparison_int
    out = []
    for row in rows:
        re = im = 0
        for j, c in row:
            a, b = num[j]
            re += c * a
            im += c * b
        out.append((re, im))
    return out, d * x._den


def _pair_numerators(h: HomologyData, x, y):
    """-x^T J^{-1} y for x, y given by :func:`_absolute_numerators`: one QC,
    or F0 when no term has both factors nonzero (as :func:`sparse_pairing`
    finds no term)."""
    rows, d = h._jinv_int
    (xn, xd), (yn, yd) = x, y
    re = im = 0
    hit = False
    for (a, b), row in zip(xn, rows):
        if a or b:
            # (J^{-1} y)_i over d, summed over the nonzero y_j
            tr = ti = 0
            for j, c in row:
                yr, yi = yn[j]
                if yr or yi:
                    hit = True
                    tr += c * yr
                    ti += c * yi
            re += a * tr - b * ti
            im += a * ti + b * tr
    if not hit:
        return F0
    den = xd * d * yd
    return QC(Fraction(-re, den), Fraction(-im, den))


def sparse_rows(matrix):
    """A matrix as the list of its nonzero entries (column, value) per row."""
    return [[(j, c) for j, c in enumerate(row) if not is_zero(c)]
            for row in matrix]


def sparse_pairing(rows, x, y):
    """-x^T M y for M given by :func:`sparse_rows`, or None when every term
    vanishes.  The terms (x_i * M_ij) * y_j are summed in (i, j) order over
    the nonzero x_i and y_j, so float inputs give the same bits on every
    call site."""
    total = None
    for xi, row in zip(x, rows):
        if is_zero(xi):
            continue
        for j, c in row:
            yj = y[j]
            if is_zero(yj):
                continue
            term = xi * c * yj
            total = term if total is None else total + term
    return None if total is None else -total


def wedge(h: HomologyData, x, y):
    """Topological wedge pairing: -x^T J^{-1} y on the absolute minus basis.

    Exact vectors pair in Python ints (:func:`_pair_numerators`); a float
    vector pairs its coordinates through :func:`sparse_pairing`."""
    xn, yn = _absolute_numerators(h, x), _absolute_numerators(h, y)
    if xn is not None and yn is not None:
        return _pair_numerators(h, xn, yn)
    w = sparse_pairing(h._jinv_rows, _absolute_coords(h, x), _absolute_coords(h, y))
    return F0 if w is None else w


def conjugate_wedges(h: HomologyData, vectors):
    """The table [[wedge(x, conj(y)) for y in vectors] for x in vectors].
    Exact vectors are restricted and conjugated once each, not once per
    entry; the comparison map is real, so conjugation commutes with the
    restriction."""
    nums = [_absolute_numerators(h, x) for x in vectors]
    if any(n is None for n in nums):
        return [[wedge(h, x, y.conjugate()) for y in vectors] for x in vectors]
    bars = [([(a, -b) for a, b in n], d) for n, d in nums]
    return [[_pair_numerators(h, x, y) for y in bars] for x in nums]


def wedge_cup_oracle(h: HomologyData, x, y):
    """Independent route: cup product of cocycle representatives."""
    xa = _absolute_coords(h, x)
    ya = _absolute_coords(h, y)
    ax = h.cocycle_functional(xa)
    by = h.cocycle_functional(ya)
    return h.cup_product_pairing(ax, by)


def hermitian_pairing(h: HomologyData, x, y):
    """(sqrt(-1)/4) * wedge(x, conj(y)); positive definite on holomorphic
    period vectors."""
    w = wedge(h, x, y.conjugate())
    imag_unit = QC_I if _is_exact_value(w) else 1j
    return imag_unit * w / 4


def _is_exact_value(v):
    return isinstance(v, (QC, Fraction, int))


def cocycle_representative(h: HomologyData, functional, space="absolute"):
    """Closed anti-invariant 1-cochain realizing ``functional`` (sequence of
    values on the chosen minus basis).  Returned as a dict over directed
    cover edges."""
    per_rep = h.cocycle_functional(list(functional), space=space)
    out = {}
    for f in h.csurf.edges():
        out[f] = h.cochain_on_edge(per_rep, f)
    return out
