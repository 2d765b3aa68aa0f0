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
    """A cochain (values per edge rep) on a chain (rep coordinates)."""
    tot = None
    for i, x in enumerate(chain_vec):
        if is_zero(x):
            continue
        term = cochain[i] * x
        tot = term if tot is None else tot + term
    return Fraction(0) if tot is None else tot


def subdivision_cup(h, alpha, beta):
    """The cup product oracle: the antisymmetrized Alexander-Whitney product
    on the barycentric subdivision, with a local potential of the second
    cochain per triangle.  Unlike ``h.cup_product_pairing`` it reads every
    edge of each triangle, so it does not assume the cochains closed."""
    def unsym(a, b):
        total = None
        for tri in h.csurf.triangles:
            a1, a2, a3 = (h.cochain_on_edge(a, f) for f in tri)
            b1, b2, _ = (h.cochain_on_edge(b, f) for f in tri)
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


def test_involution_star_squares_to_identity():
    for name in bundled_names():
        _, _, h = _ctx(name)
        n = len(h.iota_abs)
        for i in range(n):
            for j in range(n):
                s = sum(h.iota_abs[i][k] * h.iota_abs[k][j] for k in range(n))
                assert s == (1 if i == j else 0)


def test_minus_basis_chainlevel_antiinvariant():
    for name in bundled_names():
        _, _, h = _ctx(name)
        for v in h.abs_minus_basis + h.rel_minus_basis:
            iv = h.iota_chain(v)
            assert all(a == -b for a, b in zip(v, iv))


# -- oracle: the dense row-reduction kernel, one exact solve per cycle --------

def _oracle(h, cover):
    """HomologyData's public outputs rebuilt from ``cover`` by dense Fraction
    elimination: nullspace of d1, greedy reduction modulo triangle
    boundaries, and ``exact.solve`` for every expressed cycle.  Of ``h`` only
    the cochain lift is used; the cup product is :func:`subdivision_cup`."""
    import hashlib
    import json

    from qdlab.exact import mat_inverse, nullspace, solve

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

    o = {"abs_basis": basis_of(d1), "rel_basis": basis_of(d1_rel)}
    o["iota_abs"], o["abs_minus_basis"] = minus(o["abs_basis"])
    o["iota_rel"], o["rel_minus_basis"] = minus(o["rel_basis"])
    o["comparison"] = [express(o["rel_minus_basis"], z)
                       for z in o["abs_minus_basis"]]
    m = len(o["abs_minus_basis"])
    duals = [h.anti_invariant_cochain(o["abs_minus_basis"],
                                      [Fraction(int(i == j)) for j in range(m)])
             for i in range(m)]
    G = [[subdivision_cup(h, a, b) for b in duals] for a in duals]
    o["J"] = [[-x for x in row] for row in mat_inverse(G)] if m else []
    o["Jinv"] = [[-x for x in row] for row in G]
    base = cover.base
    payload = {
        "triangles": [list(t) for t in base.triangles],
        "gluings": sorted((min(e, f), max(e, f), base.sign[e])
                          for e, f in base.glue.items()),
        "marked": sorted(base.marked),
        "sigma_ub": sorted(ub),
        "mode": base.mode,
    }
    o["basis_tag"] = "hom1-" + hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    o["d1"], o["d1_rel"] = d1, d1_rel
    return o


@pytest.mark.parametrize("name", bundled_names())
@pytest.mark.parametrize("flip_seed", [None, 0, 1, 2, 3, 4])
def test_forest_cotree_kernel_matches_elimination_oracle(name, flip_seed):
    from qdlab.builders import random_flip_variant

    surf = bundled_surface(name)
    if flip_seed is not None:
        rng = random.Random(flip_seed)
        surf = random_flip_variant(surf, rng, rng.randint(1, 5))
    cover = build_cover(surf)
    h = homology_data(cover)
    o = _oracle(h, cover)
    for field in ("abs_basis", "rel_basis", "iota_abs", "iota_rel",
                  "abs_minus_basis", "rel_minus_basis", "comparison", "J",
                  "Jinv"):
        got = getattr(h, field)
        assert got == o[field], field
        assert all(type(x) is Fraction for row in got for x in row), field
    assert h.basis_tag == o["basis_tag"]
    # a single edge with distinct end nodes is not a (relative) cycle
    for h1, d in ((h._abs_h1, o["d1"]), (h._rel_h1, o["d1_rel"])):
        for i in range(len(h.reps)):
            if any(row[i] for row in d):
                chain = [Fraction(int(j == i)) for j in range(len(h.reps))]
                with pytest.raises(InconsistentFunctional):
                    h1.coords(chain)


def _two_square_torus():
    """1x2 torus of two unit squares with both vertices marked.  Its lifted
    vertices carry anti-invariant 0-cochains that are not closed, so unlike
    the bundled surfaces its cochain systems have free pair variables."""
    from qdlab.builders import _assemble

    return _assemble([0, 6], [(1, 11, 1), (7, 5, 1), (0, 4, 1), (6, 10, 1)],
                     marked=[0, 1])


@pytest.mark.parametrize("name", [*bundled_names(), "two_square_torus"])
@pytest.mark.parametrize("flip_seed", [None, 0, 1, 2])
def test_anti_invariant_cochain_normal_form(name, flip_seed):
    from qdlab.builders import random_flip_variant
    from qdlab.exact import rank

    surf = _two_square_torus() if name == "two_square_torus" else bundled_surface(name)
    if flip_seed is not None:
        rng = random.Random(flip_seed)
        surf = random_flip_variant(surf, rng, rng.randint(1, 5))
    h = homology_data(build_cover(surf))
    nr = len(h.reps)
    units = [[Fraction(int(j == i)) for j in range(nr)] for i in range(nr)]
    pairs, _ = h._pair_structure()
    npair = len(pairs)
    rng = random.Random(f"{name}/{flip_seed}")
    for basis in (h.abs_minus_basis, h.rel_minus_basis):
        # pair variable k is free, and the cochain must vanish on it, when
        # e_k is independent of the constraint rows and e_0 .. e_{k-1}
        rows = [h._cochain_row(r) for r in h._boundaries + basis]
        free = []
        span = rank(rows)
        for k in range(npair):
            rows = rows + [[Fraction(int(j == k)) for j in range(npair)]]
            if rank(rows) > span:
                free.append(k)
                span += 1
        assert span == npair
        if name == "two_square_torus" and basis is h.abs_minus_basis:
            assert free
        for _ in range(3):
            values = [QC(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                         Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                      for _ in basis]
            w = h.anti_invariant_cochain(basis, values)
            assert all(evaluate_cochain(w, bd) == 0 for bd in h._boundaries)
            assert all(evaluate_cochain(w, h.iota_chain(u)) == -w[i]
                       for i, u in enumerate(units))
            assert [evaluate_cochain(w, z) for z in basis] == values
            assert all(w[pairs[k]] == 0 for k in free)
    z = h.abs_minus_basis[0]
    with pytest.raises(InconsistentFunctional):
        h.anti_invariant_cochain([z, z], [QC(1), QC(2)])


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


@pytest.mark.parametrize("name", [*bundled_names(), "two_square_torus"])
@pytest.mark.parametrize("flip_seed", [None, 0, 1])
def test_closed_form_cup_matches_subdivision(name, flip_seed):
    from qdlab.builders import random_flip_variant

    surf = _two_square_torus() if name == "two_square_torus" else bundled_surface(name)
    if flip_seed is not None:
        rng = random.Random(flip_seed)
        surf = random_flip_variant(surf, rng, rng.randint(1, 5))
    h = homology_data(build_cover(surf))
    m = len(h.abs_minus_basis)
    cochains = [h.cocycle_functional([Fraction(int(i == j)) for j in range(m)])
                for i in range(m)]
    rng = random.Random(f"cup/{name}/{flip_seed}")
    for space in ("absolute", "relative", "relative"):
        cochains.append(h.cocycle_functional(
            list(_rand_vec(h, rng, space).coords), space=space))
    for a in cochains:
        for b in cochains:
            assert h.cup_product_pairing(a, b) == subdivision_cup(h, a, b)


def test_closed_form_cup_differs_on_a_cochain_that_is_not_closed():
    h = homology_data(build_cover(bundled_surface("genus2_generic")))
    m = len(h.abs_minus_basis)
    closed = h.cocycle_functional([Fraction(int(j == 0)) for j in range(m)])
    bump = {i: Fraction(int(i == 0)) for i in range(len(h.reps))}
    assert any(evaluate_cochain(bump, bd) for bd in h._boundaries)
    assert h.cup_product_pairing(bump, closed) != subdivision_cup(h, bump, closed)


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
    # the comparison map and the absolute-minus cochain map; no relative map
    assert len(calls) == 2
    u = period_map(c, h)
    lift_to_cochain(h, u)
    assert len(calls) == 3
    rng = random.Random(9)
    for _ in range(3):
        lift_to_cochain(h, _rand_vec(h, rng, "relative"))
        h.cocycle_functional(_rand_vec(h, rng, "relative").coords, space="relative")
        h.cocycle_functional(_rand_vec(h, rng).coords)
        wedge_cup_oracle(h, _rand_vec(h, rng), _rand_vec(h, rng, "relative"))
    assert len(calls) == 3


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
    assert tag == "hom1-" + hashlib.sha1(blobs[0]).hexdigest()[:16]


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
    """thurston_pairing's two routes on _oracle_wedge; None where they
    disagree (the function raises there)."""
    rx = PeriodVector(tuple((z + z.conjugate()) / 2 for z in x.coords),
                      x.basis_tag, x.space)
    ry = PeriodVector(tuple((z + z.conjugate()) / 2 for z in y.coords),
                      y.basis_tag, y.space)
    route1 = _oracle_wedge(h, rx, ry) / 8
    wxy_bar = _oracle_wedge(h, x, y.conjugate())
    if isinstance(wxy_bar, QC):
        r1 = route1.re if isinstance(route1, QC) else Fraction(route1)
        if isinstance(route1, QC) and route1.im != 0 or r1 != wxy_bar.re / 16:
            return None
        return r1
    r1 = complex(route1).real
    return r1 if abs(r1 - complex(wxy_bar).real / 16) <= 1e-9 * max(1.0, abs(r1)) \
        else None


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
