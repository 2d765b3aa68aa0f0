"""Exact anti-invariant homology of the orientation double cover, computed
on the base surface.

Over Q the chains of the cover split into the +1 and -1 eigenspaces of the
covering involution, and the boundary maps respect the split.  The -1 part
is spanned by the differences of the two lifts of each base cell; a branch
point has a single lift and contributes nothing.  So H_1^- of the cover,
absolute or relative to the lifted Sigma_ub, is the homology of a complex on
the base with coefficients in the local system of the gluing signs, as for
quadratic differentials in Eskin-Kontsevich-Zorich (Publ. IHES 2014):

* One generator per base edge pair.  The pair's representative r, the
  smaller id of its two directed edges, stands for
  r~ = lift(r, 0) - lift(r, 1) (``DoubleCover.lift_edge``), and the partner
  glue(r) is -sign(r) * r~.  This is the coefficient coef(f) of a directed
  edge f on its pair (:meth:`HomologyData.cochain_on_edge`).
* One d2 row per base triangle t, the boundary of lift(t, 0) - lift(t, 1):
  the sum over the directed edges f of t of coef(f) [rep f].
* One d1 row per unbranched vertex v, for v_0 - v_1.  The corners of
  ``vertex_corners(v)`` get sheets: 0 on the first, and the sheet changes
  after a corner e whose prev(e) is glued with sign -1.  The tail of
  lift(e, s) is then v_{s xor sheet(e)}.  The walk comes back changed
  exactly at a branch point (odd order), which gets no row.  Column r holds
  (-1)^sheet(next r) at its head and -(-1)^sheet(r) at its tail.  The rows
  of Sigma_ub are dropped for homology relative to Sigma_ub.

A minus basis is the nullspace of its d1 (``exact.nullspace``, one vector
per free column), kept greedily modulo the d2 rows: the nullspace vectors
that are pivot columns of one ``rref`` of the columns [d2 rows | nullspace
vectors].  The relative elimination carries the absolute basis as further
columns, and their entries in the rows of the relative pivots are the
comparison map (the relative coordinates of each absolute cycle).  The
ranks of the cover's whole H_1 follow from the transfer: the +1 part of the
cover's homology is the homology of the base, so rank H_1 is
2 #components - chi(base) plus rank H_1^-, and relative to Sigma_ub it gains
|Sigma_ub| minus the number of components that meet Sigma_ub.

The cover's abelian differential is vec(r) on lift(r, 0) and -vec(r) on
lift(r, 1), so the period of the cycle sum c_r r~ is 2 sum c_r vec(r), read
from the base numerators.  An anti-invariant cochain alpha is stored as
a_r = alpha(lift(r, 0)), one value per pair: its value on r~ is 2 a_r, and
it is closed exactly when every d2 row vanishes on a.

The intersection matrix J lives on the absolute minus basis, and the wedge
pairing

    wedge(x, y) = -x^T J^{-1} y

on period vectors is normalized so that sqrt(-1) * wedge(u, conj(u)) =
4*area for the period vector u of the abelian differential upstairs.
``HomologyData`` keeps J^{-1} and the comparison map also as sparse integer
rows over one denominator each.  An exact period vector (Gaussian-integer
numerators over one denominator, see ``periods``) is restricted through the
comparison rows and paired against the J^{-1} rows in Python ints, and only
the result becomes a QC.  Float vectors are summed by :func:`sparse_pairing`
over the nonzero Fraction entries of each row of J^{-1}.

The independent oracle for the wedge is the simplicial cup product of two
closed anti-invariant cochains, evaluated on the fundamental cycle of the
cover.  Through the barycentric subdivision (vertex / edge-midpoint /
face-center types order every small simplex) and the Alexander-Whitney
product, with a local potential phi_b of b on each triangle, it is

    cup(a, b) = sum over triangles, sum over its directed edges f of
                a(f) * (phi_b(center) - phi_b(midpoint of f)).

On a triangle with directed edges f1, f2, f3 and phi_b = 0, b1, b1 + b2 at
the corners tail(f1), tail(f2), tail(f3), the three differences are
(b1 + 2 b2)/6, -(2 b1 + b2)/6 and (b1 - b2)/6.  A closed cochain has
a3 = -a1 - a2, so the triangle's term collapses to (a1 b2 - a2 b1)/2.  The
two lifts of a base triangle give equal terms, since both cochains change
sign, so

    cup(a, b) = sum over base triangles of (a(f1) b(f2) - a(f2) b(f1)),

with a(f) = coef(f) a_{rep f}, which is antisymmetric in (a, b).  That sum
is what :meth:`HomologyData.cup_product_pairing` computes, and G, the cup
matrix of the cocycles dual to the absolute minus basis, gives
J^{-1} = -G.

The closed cochain with prescribed values on a list of cycles depends
linearly on the values, so each list is eliminated once
(:class:`_CochainMap`) and every later cochain is one sparse matrix-vector
product.

The boundary matrices are int matrices and ``rref`` keeps integer rows
throughout.  A minus-basis cycle is kept as integer numerators over one
denominator d, the lcm of the denominators of its nullspace vector, and the
cup sum of the dual cocycles is taken on their integer numerators and
divided once.  Fractions appear only at the public boundary: the bases, the
comparison map, J and Jinv hold Fraction entries, and the cochain map's
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

from .cover import DoubleCover, classify_points
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


def _fractions(vec, den=1):
    """The public form of an integer chain: ``vec / den`` as Fractions."""
    return [Fraction(x, den) if x else F0 for x in vec]


def _cycle_basis(boundaries, d1, nrep, carried=()):
    """A minus basis: the nullspace vectors of ``d1`` kept greedily modulo
    the ``boundaries``, each as (integer numerators, d).  The ``carried``
    cycles, each (numerators, d), ride along as further columns of the same
    elimination; returns their coordinates on the kept cycles too.

    Every column is an integer vector, a positive multiple of its cycle,
    which leaves the pivot columns unchanged; a coordinate read off the
    RREF is rescaled by the two multiples."""
    null = [integer_vector(z) for z in nullspace(d1, ncols=nrep)]
    cols = boundaries + [z for z, _ in null] + [z for z, _ in carried]
    R, pivots = rref([[col[r] for col in cols] for r in range(nrep)])
    nb, nz = len(boundaries), len(null)
    if pivots and pivots[-1] >= nb + nz:
        raise InconsistentFunctional("comparison map undefined")
    kept = [(k, null[pc - nb]) for k, pc in enumerate(pivots) if pc >= nb]
    coords = [[R[k][nb + nz + j] * dk / d for k, (_, dk) in kept]
              for j, (_, d) in enumerate(carried)]
    return [z for _, z in kept], coords


class _CochainMap:
    """Cycle values -> closed anti-invariant cochain, for one list of cycles.

    The unknowns are the values a_r, one per base edge pair; the constraint
    rows are the d2 rows (closedness) followed by one row per cycle, whose
    value on the cochain is 2 sum c_r a_r.  A single ``rref`` of
    [constraint rows | unit columns on the cycle rows] factors the solve:
    pivot choice reads only the left block, so each pivot row's right block
    is the linear map from the cycle values to that unknown, and each row
    whose left block vanished is a consistency condition on the values.
    The left block lists the unknowns in descending order, so the free ones
    are the lowest-index ones.  Holds plain lists only, no reference to the
    homology it came from.
    """

    __slots__ = ("_nrep", "_ncycles", "_rows", "_checks")

    def __init__(self, nrep, boundaries, cycles):
        """``boundaries`` are integer rows over the ``nrep`` pairs; each
        cycle comes as (numerators, d), so its row 2*numerators has the
        unit column d."""
        nc = len(cycles)
        R, pivots = rref(
            [row[::-1] + [0] * nc for row in boundaries]
            + [[2 * x for x in z[::-1]] + [d if j == k else 0 for j in range(nc)]
               for k, (z, d) in enumerate(cycles)])
        nleft = sum(1 for pc in pivots if pc < nrep)

        def sparse(row):
            return [(k, x) for k, x in enumerate(row[nrep:]) if x]

        self._nrep = nrep
        self._ncycles = nc
        # (pair index, [(cycle index, coefficient), ...])
        self._rows = [(nrep - 1 - pc, sparse(R[r]))
                      for r, pc in enumerate(pivots[:nleft])]
        self._checks = [chk for chk in map(sparse, R[nleft:]) if chk]

    def __call__(self, values):
        """The cochain taking ``values`` on the cycles (Fraction, QC or
        complex), as a list of values a_r per pair.  Raises
        :class:`InconsistentFunctional` when no closed cochain takes them.
        Non-pivot unknowns are zero: the normal form of
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
        a = [zero] * self._nrep
        for r, row in self._rows:
            a[r] = apply(row)
        return a

    def integer_columns(self):
        """The cochains taking 1 on one cycle and 0 on the others, each as
        (numerators per pair, d): the columns of the map over d."""
        if self._checks:
            raise InconsistentFunctional("no closed cochain matches the functional")
        cols = [[0] * self._nrep for _ in range(self._ncycles)]
        for r, row in self._rows:
            for k, x in row:
                cols[k][r] = x
        return [integer_vector(a) for a in cols]


class HomologyData:
    """Anti-invariant homology of a double cover, on its base surface;
    immutable after construction (the relative cochain map is built on
    first use, see :meth:`cocycle_functional`).

    Nothing here reads an edge vector: the data is a function of the base's
    triangles, gluing and signs and of Sigma_ub, which is what ``basis_tag``
    hashes.  No surface is kept: the base surface holds its homology (see
    :func:`homology_data`), and a reference back to it would make a
    reference cycle that only the cyclic garbage collector frees.  Only the
    base's triangle tuple and its gluing and sign tables are kept, to match
    a cover against the homology (``periods.period_map``).
    """

    def __init__(self, cover: DoubleCover):
        base = cover.base
        self._combinatorics = (base.triangles, base.glue, base.sign)
        edges = base.edges()
        self.reps = [e for e in edges if e < base.glue[e]]
        index = {r: i for i, r in enumerate(self.reps)}
        # directed edge -> (pair index, coef)
        self._chain = {e: (index[e], 1) if e in index
                       else (index[base.glue[e]], -base.sign[e]) for e in edges}
        nr = len(self.reps)

        self._boundaries = []
        for tri in base.triangles:
            row = [0] * nr
            for f in tri:
                i, sg = self._chain[f]
                row[i] += sg
            self._boundaries.append(row)

        sheet = {}
        unbranched = []
        for v in base.vertices():
            s = 0
            for e in base.vertex_corners(v):
                sheet[e] = s
                s ^= base.sign[base.prev_edge(e)] < 0
            if not s:
                unbranched.append(v)
        d1 = {v: [0] * nr for v in unbranched}
        for i, r in enumerate(self.reps):
            row = d1.get(base.vertex_at_head(r))
            if row is not None:
                row[i] += -1 if sheet[base.next_edge(r)] else 1
            row = d1.get(base.vertex_at_tail(r))
            if row is not None:
                row[i] -= -1 if sheet[r] else 1

        sigma_ub = classify_points(base).sigma_ub
        self.sigma_ub_vertices = sorted(sigma_ub)
        self._abs_minus, _ = _cycle_basis(self._boundaries, list(d1.values()), nr)
        self._rel_minus, self.comparison = _cycle_basis(
            self._boundaries, [row for v, row in d1.items() if v not in sigma_ub],
            nr, self._abs_minus)
        self.abs_minus_basis = [_fractions(z, d) for z, d in self._abs_minus]
        self.rel_minus_basis = [_fractions(z, d) for z, d in self._rel_minus]

        comps = base.components()
        h1_base = 2 * len(comps) - base.euler_characteristic()
        self._rank_abs = h1_base + len(self._abs_minus)
        self._rank_rel = (h1_base + len(sigma_ub) + len(self._rel_minus)
                          - sum(1 for comp in comps if comp["vertices"] & sigma_ub))

        # cup product terms: (pair of f1, pair of f2) per triangle, swapped
        # when the two coefficients differ
        self._cup_terms = []
        for f1, f2, _ in base.triangles:
            (i, si), (j, sj) = self._chain[f1], self._chain[f2]
            self._cup_terms.append((i, j) if si == sj else (j, i))
        self._abs_map = _CochainMap(nr, self._boundaries, self._abs_minus)
        self._rel_map = None
        m = len(self.abs_minus_basis)
        # the dual cocycles, the columns of the absolute-minus cochain map,
        # as integer numerators over d_i; their cup product over d_i d_j
        duals = self._abs_map.integer_columns()
        G = [[F0] * m for _ in range(m)]
        for i, (a, da) in enumerate(duals):
            for j in range(i + 1, m):
                b, db = duals[j]
                cup = sum(a[p] * b[q] - a[q] * b[p] for p, q in self._cup_terms)
                G[i][j] = Fraction(cup, da * db)
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

        self.basis_tag = self._make_tag(base)

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
        return "hom2-" + sha1(blob).hexdigest()[:16]

    # -- ranks ------------------------------------------------------------------
    def rank_abs(self):
        """Rank of the cover's whole H_1."""
        return self._rank_abs

    def rank_rel(self):
        """Rank of the cover's whole H_1 relative to the lifted Sigma_ub."""
        return self._rank_rel

    def rank_abs_minus(self):
        return len(self.abs_minus_basis)

    def rank_rel_minus(self):
        return len(self.rel_minus_basis)

    # -- cochains -----------------------------------------------------------------
    def anti_invariant_cochain(self, cycles, values):
        """Closed anti-invariant 1-cochain with prescribed cycle values.

        ``cycles`` are twisted 1-cycles over the base edge pairs (int or
        Fraction coefficients on r~), ``values`` their required values
        (Fraction or QC).  The unknowns are the values a_r, one per pair;
        the constraint rows are the d2 rows (closedness) and the cycles.
        Normal form: with the unknowns eliminated in descending index order,
        the cochain is zero on every non-pivot unknown.  These are the
        greedy lowest-index unknowns: a_k is zero exactly when no
        combination of the constraint rows is supported on a_0 .. a_k with a
        nonzero entry at k.  Raises :class:`InconsistentFunctional` when no
        closed cochain takes the values.  Returns the list of a_r.  For the
        minus bases, :meth:`cocycle_functional` reuses one elimination
        across calls.
        """
        return _CochainMap(len(self.reps), self._boundaries,
                           [integer_vector(z) for z in cycles])(values)

    def cocycle_functional(self, values, space="absolute"):
        """Closed anti-invariant cochain realizing a functional on a minus
        basis: :meth:`anti_invariant_cochain` of that basis.  The absolute
        map is built with the homology, the relative one on first use."""
        if space == "absolute":
            return self._abs_map(values)
        if self._rel_map is None:
            self._rel_map = _CochainMap(len(self.reps), self._boundaries,
                                        self._rel_minus)
        return self._rel_map(values)

    def cochain_on_edge(self, cochain, directed_edge):
        """The cochain's value on the sheet-0 lift of a directed base edge:
        coef(edge) times the value of its pair."""
        i, sg = self._chain[directed_edge]
        return sg * cochain[i]

    # -- cup product oracle ----------------------------------------------------
    def cup_product_pairing(self, alpha, beta):
        """Simplicial cup product of two closed cochains (values per pair)
        on the fundamental cycle of the cover, in the closed form of the
        module docstring."""
        total = None
        for i, j in self._cup_terms:
            t = alpha[i] * beta[j] - alpha[j] * beta[i]
            total = t if total is None else total + t
        return F0 if total is None else total


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
    base edges: the value on the sheet-0 lift of each edge."""
    a = h.cocycle_functional(list(functional), space=space)
    return {e: h.cochain_on_edge(a, e) for e in h._chain}
