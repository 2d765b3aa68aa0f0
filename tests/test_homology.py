"""Exact homology: ranks, eigenspaces, wedge pairing and its cup oracle."""

import random
from fractions import Fraction

import pytest

from qdlab.builders import bundled_names, bundled_surface
from qdlab.cover import build_cover
from qdlab.errors import BasisMismatch, InconsistentFunctional
from qdlab.exact import QC, QC_I, is_zero
from qdlab.homology import (
    cocycle_representative,
    hermitian_pairing,
    homology_data,
    wedge,
    wedge_cup_oracle,
)
from qdlab.periods import PeriodVector, period_map
from qdlab.surface import area, stratum_dim, symbol


def _ctx(name):
    s = bundled_surface(name)
    c = build_cover(s)
    return s, c, homology_data(c)


def evaluate_cochain(cochain, chain_vec):
    """A cochain (values a_r per edge pair) on a twisted chain (coefficients
    on r~ = lift(r, 0) - lift(r, 1)): 2 * sum c_r a_r."""
    tot = None
    for i, x in enumerate(chain_vec):
        if is_zero(x):
            continue
        term = cochain[i] * x
        tot = term if tot is None else tot + term
    return Fraction(0) if tot is None else 2 * tot


def lift_cochain(cover, h, a):
    """A cochain of ``h`` (values a_r per edge pair) on every directed cover
    edge: ``cochain_on_edge`` on the sheet-0 lift, its negative on sheet 1."""
    out = {}
    for f in cover.cover_surface.edges():
        e, sheet = cover.project_edge(f)
        x = h.cochain_on_edge(a, e)
        out[f] = -x if sheet else x
    return out


def subdivision_cup(cs, alpha, beta):
    """The cup product oracle on the cover surface ``cs``: the
    antisymmetrized Alexander-Whitney product on the barycentric subdivision,
    with a local potential of the second cochain per triangle.  The cochains
    give a value per directed cover edge.  Unlike ``h.cup_product_pairing``
    it reads every edge of each cover triangle, so it does not assume the
    cochains closed."""
    def unsym(a, b):
        total = None
        for tri in cs.triangles:
            a1, a2, a3 = (a[f] for f in tri)
            b1, b2, _ = (b[f] for f in tri)
            # potentials of b at the corners tail(f1), tail(f2), tail(f3)
            p0, p1, p2 = b1 * 0, b1, b1 + b2
            cb = (p0 + p1 + p2) / 3
            t = (a1 * (cb - (p0 + p1) / 2) + a2 * (cb - (p1 + p2) / 2)
                 + a3 * (cb - (p2 + p0) / 2))
            total = t if total is None else total + t
        return Fraction(0) if total is None else total

    return (unsym(alpha, beta) - unsym(beta, alpha)) / 2


def _rand_vec(h, rng, space="absolute", span=5):
    n = len(h.abs_minus_basis if space == "absolute" else h.rel_minus_basis)
    return PeriodVector(
        tuple(QC(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                 Fraction(rng.randint(-span, span), rng.randint(1, 3)))
              for _ in range(n)),
        h.basis_tag, space, "exact")


class TestRanks:
    def test_pillowcase_rank(self):
        s, c, h = _ctx("pillowcase")
        # elliptic involution acts by -1 on H1 of the torus cover
        assert h.rank_abs_minus() == 2
        assert h.rank_rel_minus() == 2

    def test_marked_torus_rank(self):
        s, c, h = _ctx("marked_torus")
        assert h.rank_rel_minus() == 2

    def test_genus2_absolute_minus(self):
        s, c, h = _ctx("genus2_generic")
        # rank H1(cover)^- = 2*5 - 2*2
        assert h.rank_abs() == 10
        assert h.rank_abs_minus() == 6

    def test_rank_equals_stratum_dim(self):
        for name in bundled_names():
            s, c, h = _ctx(name)
            assert h.rank_rel_minus() == stratum_dim(symbol(s), s.genus())

    def test_comparison_iso_for_generic(self):
        s, c, h = _ctx("genus2_generic")
        n = h.rank_abs_minus()
        assert n == h.rank_rel_minus()
        # square matrix of full rank
        from qdlab.exact import rank

        assert rank(h.comparison) == n


class TestCocycleRepresentative:
    def test_zero_functional(self):
        _, _, h = _ctx("pillowcase")
        coc = cocycle_representative(h, [0] * h.rank_abs_minus())
        assert all(v == 0 or (hasattr(v, "is_zero") and v.is_zero())
                   for v in coc.values())

    def test_period_functional_matches_edge_cochain(self):
        s, c, h = _ctx("pillowcase")
        u = period_map(c, h)
        coc = h.cocycle_functional(list(u.coords), space="relative")
        for j, cyc in enumerate(h.rel_minus_basis):
            val = evaluate_cochain(coc, cyc)
            assert val == u.coords[j]
        # closed: vanishes on every triangle boundary
        for b in h._boundaries:
            assert evaluate_cochain(coc, b).is_zero()

    def test_random_functionals_exact(self):
        rng = random.Random(3)
        _, _, h = _ctx("genus2_generic")
        for _ in range(20):
            f = [QC(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
                 for _ in range(h.rank_abs_minus())]
            coc = h.cocycle_functional(f, space="absolute")
            for j, cyc in enumerate(h.abs_minus_basis):
                assert evaluate_cochain(coc, cyc) == f[j]


class TestWedge:
    def test_antisymmetry_diag(self):
        rng = random.Random(5)
        for name in bundled_names():
            _, _, h = _ctx(name)
            x = _rand_vec(h, rng)
            assert wedge(h, x, x).is_zero()

    def test_area_identity(self):
        for name in bundled_names():
            s, c, h = _ctx(name)
            u = period_map(c, h)
            assert QC_I * wedge(h, u, u.conjugate()) == QC(4 * area(s), 0)

    def test_pillowcase_value(self):
        s, c, h = _ctx("pillowcase")
        u = period_map(c, h)
        assert QC_I * wedge(h, u, u.conjugate()) == QC(8, 0)

    def test_cup_oracle_random(self):
        rng = random.Random(7)
        for name in bundled_names():
            _, _, h = _ctx(name)
            for _ in range(25):
                x = _rand_vec(h, rng)
                y = _rand_vec(h, rng)
                assert wedge(h, x, y) == wedge_cup_oracle(h, x, y)

    def test_J_antisymmetric_nondegenerate(self):
        from qdlab.exact import mat_inverse

        for name in bundled_names():
            _, _, h = _ctx(name)
            n = len(h.J)
            for i in range(n):
                for j in range(n):
                    assert h.J[i][j] == -h.J[j][i]
            assert mat_inverse(h.J) is not None

    def test_relative_vectors_through_comparison(self):
        rng = random.Random(11)
        s, c, h = _ctx("genus2_generic")
        u = period_map(c, h)  # relative
        v = _rand_vec(h, rng, space="relative")
        # bilinearity across spaces after pullback
        w1 = wedge(h, u + v, u.conjugate())
        w2 = wedge(h, u, u.conjugate()) + wedge(h, v, u.conjugate())
        assert w1 == w2

    def test_basis_mismatch(self):
        _, _, h1 = _ctx("pillowcase")
        _, _, h2 = _ctx("marked_torus")
        x = PeriodVector((QC(1), QC(0)), h1.basis_tag, "absolute", "exact")
        y = PeriodVector((QC(1), QC(0)), h2.basis_tag, "absolute", "exact")
        with pytest.raises(BasisMismatch):
            wedge(h1, x, y)


class TestHermitian:
    def test_norm_is_area(self):
        for name in bundled_names():
            s, c, h = _ctx(name)
            u = period_map(c, h)
            assert hermitian_pairing(h, u, u) == QC(area(s), 0)

    def test_sesquilinearity(self):
        s, c, h = _ctx("pillowcase")
        u = period_map(c, h)
        iu = u.scale(QC(0, 1))
        assert hermitian_pairing(h, u, iu) == QC(0, -area(s))

    def test_conjugate_symmetry(self):
        rng = random.Random(13)
        _, _, h = _ctx("genus2_generic")
        for _ in range(15):
            x = _rand_vec(h, rng)
            y = _rand_vec(h, rng)
            assert hermitian_pairing(h, x, y) == \
                hermitian_pairing(h, y, x).conjugate()


def _variant(name, flip_seed):
    """Bundled surface ``name`` (or one of the two test surfaces below),
    flipped by the seeded ``random_flip_variant`` unless ``flip_seed`` is
    None."""
    from qdlab.builders import random_flip_variant

    extra = {"two_square_torus": _two_square_torus,
             "four_square_pillowcase": _four_square_pillowcase}
    surf = extra[name]() if name in extra else bundled_surface(name)
    if flip_seed is not None:
        rng = random.Random(flip_seed)
        surf = random_flip_variant(surf, rng, rng.randint(1, 5))
    return surf


def _two_square_torus():
    """1x2 torus of two unit squares with both vertices marked.  Its vertices
    are unbranched and carry twisted 0-cochains that are not closed, so
    unlike the bundled surfaces its absolute cochain system has free
    unknowns."""
    from qdlab.builders import _assemble

    return _assemble([0, 6], [(1, 11, 1), (7, 5, 1), (0, 4, 1), (6, 10, 1)],
                     marked=[0, 1])


def _four_square_pillowcase():
    """Four unit squares in a row, folded along the top and bottom into a
    pillowcase with its four poles and one of its two regular vertices
    marked.  Unlike every bundled surface it has unbranched vertices and
    gluing signs -1, so its d1 rows depend on the sheets of the corners."""
    from qdlab.builders import _assemble

    return _assemble([0, 6, 12, 18],
                     [(1, 11, 1), (7, 17, 1), (13, 23, 1), (5, 19, 1),
                      (0, 18, -1), (6, 12, -1), (4, 22, -1), (10, 16, -1)],
                     marked=[0, 1, 5, 7, 8])


EXTRA_SURFACES = ["two_square_torus", "four_square_pillowcase"]


def test_involution_star_squares_to_identity():
    # iota_* on the oracle's bases of the cover's whole H_1 is an involution,
    # and its -1 eigenspace has the rank of the twisted complex on the base
    from qdlab.exact import rank

    for name in bundled_names():
        cover = build_cover(bundled_surface(name))
        h = homology_data(cover)
        o = _oracle(cover)
        for io, r in ((o["iota_abs"], h.rank_abs_minus()),
                      (o["iota_rel"], h.rank_rel_minus())):
            n = len(io)
            for i in range(n):
                for j in range(n):
                    s = sum(io[i][k] * io[k][j] for k in range(n))
                    assert s == (1 if i == j else 0)
            assert n - rank([[x + (i == j) for j, x in enumerate(row)]
                             for i, row in enumerate(io)]) == r


def test_minus_basis_chainlevel_antiinvariant():
    for name in bundled_names():
        cover = build_cover(bundled_surface(name))
        h = homology_data(cover)
        o = _oracle(cover)
        for v in h.abs_minus_basis + h.rel_minus_basis:
            z = o["lift"](v)
            assert any(z) and o["iota"](z) == [-x for x in z]


# -- oracle: dense row reduction on the whole chain complex of the cover ------

def _oracle(cover):
    """The cover's homology by dense Fraction elimination on its own chain
    complex, with no use of HomologyData: H_1 bases from the nullspace of d1
    reduced greedily modulo the triangle boundaries, iota_* on them, and the
    minus bases from the nullspace of iota_* + 1.  Chains are lists over the
    cover's edge reps; ``lift`` takes a twisted base chain (coefficients on
    r~ = lift(r, 0) - lift(r, 1) for the base reps r) there, and ``express``
    gives the coordinates of a cycle on a basis."""
    import hashlib
    import json

    from qdlab.exact import nullspace, solve

    c = cover.cover_surface
    reps = sorted({min(e, c.glue[e]) for e in c.edges()})
    index = {r: i for i, r in enumerate(reps)}
    nr = len(reps)

    def chain(e):
        r = min(e, c.glue[e])
        return index[r], (1 if e == r else -1)

    bounds = []
    for tri in c.triangles:
        b = [Fraction(0)] * nr
        for e in tri:
            i, sg = chain(e)
            b[i] += sg
        bounds.append(b)
    verts = c.vertices()
    d1 = [[Fraction(0)] * nr for _ in verts]
    for i, r in enumerate(reps):
        d1[verts.index(c.vertex_at_head(r))][i] += 1
        d1[verts.index(c.vertex_at_tail(r))][i] -= 1
    ub = cover.lifted_sigma()["sigma_ub"]
    d1_rel = [row for v, row in zip(verts, d1) if v not in ub]
    iota_edge = [chain(cover.involution_edge(r)) for r in reps]

    def iota(vec):
        out = [Fraction(0)] * nr
        for i, x in enumerate(vec):
            j, sg = iota_edge[i]
            out[j] += sg * x
        return out

    def basis_of(d):
        echelon = {}  # pivot column -> row with 1 there

        def independent(v):
            for p, row in sorted(echelon.items()):
                if v[p]:
                    v = [a - v[p] * b for a, b in zip(v, row)]
            p = next((k for k, x in enumerate(v) if x), None)
            if p is not None:
                echelon[p] = [x / v[p] for x in v]
            return p is not None

        for b in bounds:
            independent(b)
        return [z for z in nullspace(d, ncols=nr) if independent(z)]

    def express(basis, cyc):
        cols = bounds + basis
        x = solve([[col[r] for col in cols] for r in range(nr)], list(cyc))
        if x is None:
            raise InconsistentFunctional("not a cycle")
        return x[len(bounds):]

    def minus(basis):
        n = len(basis)
        cols = [express(basis, iota(b)) for b in basis]
        io = [[cols[j][i] for j in range(n)] for i in range(n)]
        out = []
        for k in nullspace([[io[i][j] + (i == j) for j in range(n)]
                            for i in range(n)]):
            cyc = [sum((k[j] * b[r] for j, b in enumerate(basis)), Fraction(0))
                   for r in range(nr)]
            out.append([(a - b) / 2 for a, b in zip(cyc, iota(cyc))])
        return io, out

    base = cover.base
    base_reps = [e for e in base.edges() if e < base.glue[e]]

    def lift(base_chain):
        out = [Fraction(0)] * nr
        for r, x in zip(base_reps, base_chain):
            for sheet, sheet_sign in ((0, 1), (1, -1)):
                i, sg = chain(cover.lift_edge(r, sheet))
                out[i] += sheet_sign * sg * x
        return out

    o = {"abs_basis": basis_of(d1), "rel_basis": basis_of(d1_rel)}
    o["iota_abs"], o["abs_minus_basis"] = minus(o["abs_basis"])
    o["iota_rel"], o["rel_minus_basis"] = minus(o["rel_basis"])
    payload = {
        "triangles": [list(t) for t in base.triangles],
        "gluings": sorted((min(e, f), max(e, f), base.sign[e])
                          for e, f in base.glue.items()),
        "marked": sorted(base.marked),
        "sigma_ub": sorted(cover.classification.sigma_ub),
        "mode": base.mode,
    }
    o["basis_tag"] = "hom2-" + hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    o.update(d1=d1, d1_rel=d1_rel, reps=reps, base_reps=base_reps, chain=chain,
             iota=iota, express=express, lift=lift)
    return o


def _oracle_jinv(cover, o):
    """-G for G the cup matrix of the cochains dual to the oracle's absolute
    minus basis: closed anti-invariant cochains solved on the cover's edge
    reps and paired by :func:`subdivision_cup`."""
    from qdlab.exact import solve

    c = cover.cover_surface
    chain, reps = o["chain"], o["reps"]
    nr = len(reps)
    rows = []
    for tri in c.triangles:
        row = [Fraction(0)] * nr
        for e in tri:
            i, sg = chain(e)
            row[i] += sg
        rows.append(row)
    for i, r in enumerate(reps):
        # alpha(iota rep_i) = -alpha(rep_i)
        j, sg = chain(cover.involution_edge(r))
        row = [Fraction(0)] * nr
        row[i] += 1
        row[j] += sg
        rows.append(row)
    basis = o["abs_minus_basis"]
    m = len(basis)
    duals = []
    for k in range(m):
        a = solve(rows + basis, [Fraction(0)] * len(rows)
                  + [Fraction(int(j == k)) for j in range(m)])
        duals.append({f: chain(f)[1] * a[chain(f)[0]] for f in c.edges()})
    return [[-subdivision_cup(c, a, b) for b in duals] for a in duals]


@pytest.mark.parametrize("name", [*bundled_names(), *EXTRA_SURFACES])
@pytest.mark.parametrize("flip_seed", [None, 0, 1, 2, 3, 4])
def test_forest_cotree_kernel_matches_elimination_oracle(name, flip_seed):
    # the twisted complex on the base against dense elimination on the whole
    # cover (the name is that of the kernel this test first checked)
    from qdlab.exact import mat_inverse, rank

    cover = build_cover(_variant(name, flip_seed))
    h = homology_data(cover)
    o = _oracle(cover)
    assert [h.rank_abs(), h.rank_rel(), h.rank_abs_minus(), h.rank_rel_minus()] \
        == [len(o[k]) for k in ("abs_basis", "rel_basis", "abs_minus_basis",
                                "rel_minus_basis")]
    assert h.reps == o["base_reps"]
    assert h.basis_tag == o["basis_tag"]
    for field in ("abs_minus_basis", "rel_minus_basis", "comparison", "J", "Jinv"):
        assert all(type(x) is Fraction for row in getattr(h, field) for x in row), field
    lifted = {}
    for space, d in (("abs", o["d1"]), ("rel", o["d1_rel"])):
        lifted[space] = [o["lift"](z) for z in getattr(h, space + "_minus_basis")]
        for z in lifted[space]:
            # an anti-invariant cycle of the cover (relative to Sigma_ub)
            assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in d)
            assert o["iota"](z) == [-x for x in z]
    # P[j]: the oracle coordinates of the lifted absolute cycle j, the
    # column j of the change of basis; J^{-1}_oracle = P J^{-1} P^T
    P = [o["express"](o["abs_minus_basis"], z) for z in lifted["abs"]]
    m = len(P)
    want = _oracle_jinv(cover, o)
    assert [[sum(P[i][a] * h.Jinv[i][j] * P[j][b] for i in range(m) for j in range(m))
             for b in range(m)] for a in range(m)] == want
    assert mat_inverse(h.Jinv) == h.J
    # the relative cycles are a basis, and the comparison map holds on the cover
    Q = [o["express"](o["rel_minus_basis"], z) for z in lifted["rel"]]
    assert rank(Q) == len(Q) == len(o["rel_minus_basis"])
    for z, row in zip(lifted["abs"], h.comparison):
        assert o["express"](o["rel_minus_basis"], z) == [
            sum((cf * q[k] for cf, q in zip(row, Q)), Fraction(0))
            for k in range(len(Q))]


@pytest.mark.parametrize("name", [*bundled_names(), *EXTRA_SURFACES])
@pytest.mark.parametrize("flip_seed", [None, 0, 1, 2])
def test_anti_invariant_cochain_normal_form(name, flip_seed):
    from qdlab.exact import rank

    cover = build_cover(_variant(name, flip_seed))
    cs = cover.cover_surface
    h = homology_data(cover)
    nr = len(h.reps)
    rng = random.Random(f"{name}/{flip_seed}")
    for basis in (h.abs_minus_basis, h.rel_minus_basis):
        # unknown k is free, and the cochain must vanish on it, when e_k is
        # independent of the constraint rows and e_0 .. e_{k-1}
        rows = h._boundaries + basis
        free = []
        span = rank(rows)
        for k in range(nr):
            rows = rows + [[Fraction(int(j == k)) for j in range(nr)]]
            if rank(rows) > span:
                free.append(k)
                span += 1
        assert span == nr
        if name == "two_square_torus" and basis is h.abs_minus_basis:
            assert free
        for _ in range(3):
            values = [QC(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                         Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                      for _ in basis]
            w = h.anti_invariant_cochain(basis, values)
            assert all(evaluate_cochain(w, bd) == 0 for bd in h._boundaries)
            assert [evaluate_cochain(w, z) for z in basis] == values
            assert all(w[k] == 0 for k in free)
            # on the cover: well defined across every glued edge, closed on
            # every triangle, anti-invariant
            up = lift_cochain(cover, h, w)
            for f in cs.edges():
                assert up[cs.glue[f]] == -up[f]
                assert up[cover.involution_edge(f)] == -up[f]
            assert all(up[a] + up[b] + up[c] == 0 for a, b, c in cs.triangles)
    z = h.abs_minus_basis[0]
    with pytest.raises(InconsistentFunctional):
        h.anti_invariant_cochain([z, z], [QC(1), QC(2)])


def test_cycle_basis_keeps_non_integral_cycles_over_their_denominators():
    # on the test surfaces every twisted cycle is integral; a d1 entry 2 (a
    # loop whose ends lie on different sheets) gives the nullspace vector
    # (-1/2, 1, 0), kept as ((-1, 2, 0), 2), and the coordinates of a
    # carried cycle are read off the integer columns and rescaled
    from qdlab.homology import _cycle_basis

    basis, coords = _cycle_basis([], [[2, 1, 0]], 3, [([-3, 6, 10], 2)])
    assert basis == [([-1, 2, 0], 2), ([0, 0, 1], 1)]
    assert coords == [[3, 5]]
    # modulo a boundary, the first cycle is dropped and the coordinates follow
    basis, coords = _cycle_basis([[-1, 2, 0]], [[2, 1, 0]], 3, [([-3, 6, 10], 2)])
    assert basis == [([0, 0, 1], 1)] and coords == [[5]]


def test_homology_built_once_per_surface():
    from qdlab.builders import random_flip_variant

    s = bundled_surface("genus2_generic")
    h = homology_data(build_cover(s))
    assert homology_data(build_cover(s)) is h
    v = random_flip_variant(s, random.Random(3), 3)
    hv = homology_data(build_cover(v))
    assert hv is not h and hv.basis_tag != h.basis_tag
    assert homology_data(build_cover(v)) is hv


def test_dropped_surface_frees_its_homology_without_gc():
    # the surface holds its homology; if the homology referred back to the
    # surface or its cover, freeing a dropped variant would wait for the
    # cyclic garbage collector
    import gc
    import weakref

    from qdlab.builders import random_flip_variant

    gc.disable()
    try:
        v = random_flip_variant(bundled_surface("l_origami"), random.Random(5), 4)
        ref = weakref.ref(homology_data(build_cover(v)))
        assert ref() is not None
        del v
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("space", ["relative", "absolute"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_length_vector_raises_basis_mismatch(space, delta):
    from qdlab.deformation import lift_to_cochain

    c = build_cover(bundled_surface("genus2_generic"))
    h = homology_data(c)
    u = period_map(c, h)
    rank = len(h.rel_minus_basis if space == "relative" else h.abs_minus_basis)
    bad = PeriodVector(tuple(QC(k + 1, 0) for k in range(rank + delta)),
                       h.basis_tag, space, "exact")
    with pytest.raises(BasisMismatch):
        wedge(h, bad, u)
    with pytest.raises(BasisMismatch):
        wedge(h, u, bad)
    with pytest.raises(BasisMismatch):
        wedge_cup_oracle(h, bad, u)
    if space == "relative":
        with pytest.raises(BasisMismatch):
            lift_to_cochain(h, bad)


@pytest.mark.parametrize("name", [*bundled_names(), *EXTRA_SURFACES])
@pytest.mark.parametrize("flip_seed", [None, 0, 1])
def test_closed_form_cup_matches_subdivision(name, flip_seed):
    cover = build_cover(_variant(name, flip_seed))
    h = homology_data(cover)
    m = len(h.abs_minus_basis)
    cochains = [h.cocycle_functional([Fraction(int(i == j)) for j in range(m)])
                for i in range(m)]
    rng = random.Random(f"cup/{name}/{flip_seed}")
    for space in ("absolute", "relative", "relative"):
        cochains.append(h.cocycle_functional(
            list(_rand_vec(h, rng, space).coords), space=space))
    ups = [lift_cochain(cover, h, a) for a in cochains]
    for a, a_up in zip(cochains, ups):
        for b, b_up in zip(cochains, ups):
            assert h.cup_product_pairing(a, b) == subdivision_cup(
                cover.cover_surface, a_up, b_up)


def test_closed_form_cup_differs_on_a_cochain_that_is_not_closed():
    cover = build_cover(bundled_surface("genus2_generic"))
    h = homology_data(cover)
    m = len(h.abs_minus_basis)
    closed = h.cocycle_functional([Fraction(int(j == 0)) for j in range(m)])
    bump = [Fraction(int(i == 0)) for i in range(len(h.reps))]
    assert any(evaluate_cochain(bump, bd) for bd in h._boundaries)
    assert h.cup_product_pairing(bump, closed) != subdivision_cup(
        cover.cover_surface, lift_cochain(cover, h, bump), lift_cochain(cover, h, closed))


def test_cochain_maps_are_built_once_per_homology(monkeypatch):
    import qdlab.homology as H
    from qdlab.builders import random_flip_variant
    from qdlab.deformation import lift_to_cochain

    calls = []
    rref = H.rref
    monkeypatch.setattr(H, "rref", lambda matrix: calls.append(1) or rref(matrix))
    s = random_flip_variant(bundled_surface("marked_torus"), random.Random(8), 3)
    c = build_cover(s)
    h = homology_data(c)
    # the absolute and the relative basis (the second elimination also gives
    # the comparison map) and the absolute-minus cochain map; no relative map
    assert len(calls) == 3
    u = period_map(c, h)
    lift_to_cochain(h, u)
    assert len(calls) == 4
    rng = random.Random(9)
    for _ in range(3):
        lift_to_cochain(h, _rand_vec(h, rng, "relative"))
        h.cocycle_functional(_rand_vec(h, rng, "relative").coords, space="relative")
        h.cocycle_functional(_rand_vec(h, rng).coords)
        wedge_cup_oracle(h, _rand_vec(h, rng), _rand_vec(h, rng, "relative"))
    assert len(calls) == 4


def test_basis_tag_loads_no_openssl():
    # hashlib maps OpenSSL's libcrypto into the process; the basis tag uses
    # the builtin sha1 module instead
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qdlab

    code = ("import sys, qdlab\n"
            "from qdlab.builders import bundled_surface\n"
            "from qdlab.cover import build_cover\n"
            "from qdlab.homology import homology_data\n"
            "homology_data(build_cover(bundled_surface('genus2_generic')))\n"
            "print(sorted(m for m in sys.modules if 'hashlib' in m))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qdlab.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", bundled_names())
def test_basis_tag_is_the_sha1_of_its_payload(monkeypatch, name):
    import hashlib

    import qdlab.homology as H

    c = build_cover(bundled_surface(name))
    tag = homology_data(c).basis_tag
    blobs, sha1 = [], H.sha1
    monkeypatch.setattr(H, "sha1", lambda blob: blobs.append(blob) or sha1(blob))
    assert homology_data(c)._make_tag(c.base) == tag
    assert tag == "hom2-" + hashlib.sha1(blobs[0]).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the integer wedge against the sum over QC coordinates it replaced
# ---------------------------------------------------------------------------

def _qc_absolute(h, x):
    """x on the absolute minus basis, restricted through h.comparison in QC."""
    if x.space == "absolute":
        return list(x.coords)
    return [sum((z * cf for z, cf in zip(x.coords, row) if cf and not z.is_zero()),
                QC(0, 0)) for row in h.comparison]


def _oracle_wedge(h, x, y):
    """The old route: sparse_pairing over QC coordinates, F0 when no term
    has both factors nonzero."""
    from qdlab.homology import sparse_pairing, sparse_rows

    w = sparse_pairing(sparse_rows(h.Jinv), _qc_absolute(h, x), _qc_absolute(h, y))
    return Fraction(0) if w is None else w


def _oracle_thurston(h, x, y):
    """thurston_pairing's two routes on _oracle_wedge for exact x and y; None
    where they disagree (the function raises there).  A Fraction, also when
    a wedge is the Fraction 0 of a pairing with no nonzero term."""
    rx = PeriodVector(tuple((z + z.conjugate()) / 2 for z in x.coords),
                      x.basis_tag, x.space)
    ry = PeriodVector(tuple((z + z.conjugate()) / 2 for z in y.coords),
                      y.basis_tag, y.space)
    route1 = _oracle_wedge(h, rx, ry) / 8
    wxy_bar = _oracle_wedge(h, x, y.conjugate())
    r1, i1 = (route1.re, route1.im) if isinstance(route1, QC) else (route1, 0)
    r2 = wxy_bar.re if isinstance(wxy_bar, QC) else wxy_bar
    return None if i1 or r1 != r2 / 16 else r1


def _sparse_vec(h, rng, space, support):
    """Random exact vector that vanishes outside ``support``."""
    n = len(h.abs_minus_basis if space == "absolute" else h.rel_minus_basis)
    return PeriodVector(
        tuple(QC(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
              if k in support else QC(0, 0) for k in range(n)),
        h.basis_tag, space, "exact")


def _pairing_inputs(h, rng):
    """Dense, sparse and zero vectors in both spaces, including pairs whose
    wedge has no term with both factors nonzero."""
    for sx in ("absolute", "relative"):
        for sy in ("absolute", "relative"):
            for _ in range(3):
                yield _rand_vec(h, rng, sx), _rand_vec(h, rng, sy)
            x = _sparse_vec(h, rng, sx, {0})
            yield x, _sparse_vec(h, rng, sy, {0})
            yield x, _sparse_vec(h, rng, sy, {1})
            yield x.zero_like(), _rand_vec(h, rng, sy)


def _assert_same_value_and_type(got, want, what):
    assert type(got) is type(want) and got == want, what


def test_integer_wedge_matches_sparse_pairing_on_qc_coords():
    from qdlab.builders import random_flip_variant
    from qdlab.levi import WedgeTable, thurston_pairing

    hits = {Fraction: 0, QC: 0}
    for name in bundled_names():
        rng = random.Random(f"iwedge/{name}")
        base = bundled_surface(name)
        for s in (base, random_flip_variant(base, rng, 4), base.scaled(Fraction(2, 3))):
            c = build_cover(s)
            h = homology_data(c)
            u = period_map(c, h)
            for x, y in [(u, u.conjugate()), (u, u)] + list(_pairing_inputs(h, rng)):
                want = _oracle_wedge(h, x, y)
                hits[type(want)] += 1
                _assert_same_value_and_type(wedge(h, x, y), want, (name, x, y))
                herm = QC_I * _oracle_wedge(h, x, y.conjugate()) / 4
                _assert_same_value_and_type(hermitian_pairing(h, x, y), herm, name)
                if x.space == y.space:
                    for a, b in ((x, y), (x, x), (x, x.scale(QC(0, 1)))):
                        t = _oracle_thurston(h, a, b)
                        if t is None:
                            with pytest.raises(InconsistentFunctional):
                                thurston_pairing(h, a, b)
                        else:
                            _assert_same_value_and_type(thurston_pairing(h, a, b), t, name)
            v1, v2 = _rand_vec(h, rng, "relative"), _sparse_vec(h, rng, "relative", {1})
            for vecs in ((u, v1, v2), (u, v1.zero_like(), v2), (v2, v2, u.zero_like())):
                t = WedgeTable(h, *vecs)
                for a, xa in zip(t.KEYS, vecs):
                    for b, xb in zip(t.KEYS, vecs):
                        _assert_same_value_and_type(
                            t.wc[a][b], _oracle_wedge(h, xa, xb.conjugate()), (name, a, b))
    assert hits[Fraction] > 20 and hits[QC] > 100


def test_integer_wedge_reads_both_denominators():
    # J^{-1} has denominator 2 on the bundled surfaces, but their comparison
    # maps are integral; a copy of the homology with a comparison map over
    # 35 shows that the restriction divides by it
    import copy

    from qdlab.homology import _integer_rows

    _, c, h = _ctx("genus2_generic")
    assert _integer_rows(h.Jinv)[1] == 2 and _integer_rows(h.comparison)[1] == 1
    rng = random.Random(17)
    h2 = copy.copy(h)
    h2.comparison = [[Fraction(rng.randint(-6, 6), rng.choice((1, 5, 7))) for _ in row]
                     for row in h.comparison]
    h2._comparison_int = _integer_rows(h2.comparison)
    assert h2._comparison_int[1] == 35
    for _ in range(10):
        x = _rand_vec(h2, rng, "relative")
        for y in (_rand_vec(h2, rng, "absolute"), _rand_vec(h2, rng, "relative")):
            _assert_same_value_and_type(wedge(h2, x, y), _oracle_wedge(h2, x, y), y.space)
