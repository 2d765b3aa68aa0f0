"""Bundled verification suites: one callable per acceptance-style criterion.

Each suite returns a CheckReport-like dict: {"name", "passed", "detail"}.
``run_all`` executes the whole battery on the bundled surfaces and prints one
pass/fail line per criterion; it is what ``qdlab verify all --suite bundled``
runs, and the pytest acceptance module calls the same functions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .builders import (
    bundled_names,
    bundled_surface,
    random_deform_variant,
    random_flip_variant,
)
from .cover import build_cover
from .deformation import affine_deform, geodesic_flow
from .delaunay import delaunayize, is_delaunay
from .errors import InconsistentFunctional, TriangleFlip
from .exact import QC, QC_I
from .homology import homology_data, wedge, wedge_cup_oracle
from .levi import (
    FDConfig,
    default_disk_grid,
    demailly_ratio,
    disk_harmonicity_check,
    first_variation_check,
    scenario_identity_check,
    thurston_pairing,
)
from .periods import PeriodVector, period_map
from .strata import SymbolPoset, degenerates_to
from .surface import area, make_symbol, stratum_dim, symbol

EXPECTED_RANKS = {
    "pillowcase": 2,
    "marked_torus": 2,
    "l_origami": 4,
    "genus2_generic": 6,
}


def _ctx(name):
    s = bundled_surface(name)
    c = build_cover(s)
    h = homology_data(c)
    return s, c, h


_CTX_CACHE = {}


def ctx(name):
    if name not in _CTX_CACHE:
        _CTX_CACHE[name] = _ctx(name)
    return _CTX_CACHE[name]


def _report(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _rand_qc(rng, span=4):
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
              Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def _random_vector(h, rng, space="relative", span=4):
    n = len(h.rel_minus_basis if space == "relative" else h.abs_minus_basis)
    return PeriodVector(tuple(_rand_qc(rng, span) for _ in range(n)),
                        h.basis_tag, space, "exact")


# -- criterion 1: dimension identity -----------------------------------------

def check_dimension_identity():
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        sym = symbol(s)
        dim = stratum_dim(sym, s.genus())
        r = h.rank_rel_minus()
        detail[name] = {"rank_rel_minus": r, "stratum_dim": dim,
                        "expected": EXPECTED_RANKS[name]}
        ok = ok and r == dim == EXPECTED_RANKS[name]
    return _report("dimension-identity", ok, detail)


# -- criterion 2: cover bookkeeping -------------------------------------------

def check_cover_bookkeeping():
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        chi0 = s.euler_characteristic()
        chic = c.cover_surface.euler_characteristic()
        n_o = len(c.classification.sigma_o)
        good = chic == 2 * chi0 - n_o
        entry = {"chi_base": chi0, "chi_cover": chic, "branch": n_o}
        if name == "genus2_generic":
            comps = c.cover_surface.components()
            genus = c.cover_surface.component_genus(comps[0])
            good = good and len(comps) == 1 and genus == 5
            good = good and genus == 2 * s.genus() - 1 + n_o // 2
            entry["cover_genus"] = genus
        detail[name] = entry
        ok = ok and good
    return _report("cover-bookkeeping", ok, detail)


# -- criterion 3: Riemann area identity ----------------------------------------

def _area_identity_holds(s, c, h):
    u = period_map(c, h)
    val = QC_I * wedge(h, u, u.conjugate())
    target = 4 * area(s)
    return val == QC(target, 0), val


def check_area_identity(seed=7, variants=100):
    rng = random.Random(seed)
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        good, val = _area_identity_holds(s, c, h)
        detail[name] = {"i_wedge_u_ubar": [str(val.re), str(val.im)],
                        "4area": str(4 * area(s)), "exact": good}
        ok = ok and good
    per = max(1, variants // len(bundled_names()))
    checked = 0
    for name in bundled_names():
        s, _, _ = ctx(name)
        for k in range(per):
            v = random_flip_variant(s, rng, n_flips=rng.randint(1, 5))
            cv = build_cover(v)
            hv = homology_data(cv)
            good, _ = _area_identity_holds(v, cv, hv)
            ok = ok and good
            checked += 1
    detail["random_flip_variants"] = checked
    return _report("riemann-area-identity", ok, detail)


# -- criterion 4: cup-product oracle -------------------------------------------

def check_cup_oracle(seed=11, pairs_per_surface=100):
    rng = random.Random(seed)
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        bad = 0
        for _ in range(pairs_per_surface):
            x = _random_vector(h, rng, space="absolute")
            y = _random_vector(h, rng, space="absolute")
            if wedge(h, x, y) != wedge_cup_oracle(h, x, y):
                bad += 1
        detail[name] = {"pairs": pairs_per_surface, "mismatches": bad}
        ok = ok and bad == 0
    return _report("cup-product-oracle", ok, detail)


# -- criterion 5: geodesic flow --------------------------------------------------

def check_geodesic_flow(ts=(0.1, 1.0, 5.0), tol=1e-12):
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        sym0 = symbol(s)
        u0 = period_map(c, h)
        entry = {}
        for t in ts:
            st = geodesic_flow(s, t)
            k = math.exp(-2 * t)
            rel = abs(float(area(st)) - k * float(area(s))) / (k * float(area(s)))
            sym_ok = symbol(st) == sym0
            ct = build_cover(st)
            ut = period_map(ct, h)
            per_ok = True
            for z0, zt in zip(u0.coords, ut.coords):
                z0c, ztc = complex(z0), complex(zt)
                want = complex(z0c.real, k * z0c.imag)
                scale = max(1.0, abs(want))
                if abs(ztc - want) > tol * scale:
                    per_ok = False
            entry[str(t)] = {"area_rel_err": rel, "symbol_ok": sym_ok,
                             "periods_ok": per_ok}
            ok = ok and rel <= tol and sym_ok and per_ok
        detail[name] = entry
    return _report("geodesic-flow", ok, detail)


# -- criterion 6: period additivity ----------------------------------------------

def check_period_additivity(seed=13, count_per_surface=100):
    rng = random.Random(seed)
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        u0 = period_map(c, h)
        good = 0
        for _ in range(count_per_surface):
            v = _random_vector(h, rng).scale(Fraction(1, 16))
            try:
                c2 = affine_deform(c, h, v)
            except TriangleFlip:
                v = v.scale(Fraction(1, 8))
                try:
                    c2 = affine_deform(c, h, v)
                except TriangleFlip:
                    continue
            u1 = period_map(c2, h)
            if (u1 - u0 - v).is_zero():
                good += 1
        # total collapse control: v = -u must flip triangles
        flip_ok = False
        try:
            affine_deform(c, h, -u0)
        except TriangleFlip:
            flip_ok = True
        detail[name] = {"exact_additive": good, "attempted": count_per_surface,
                        "collapse_raises": flip_ok}
        ok = ok and good >= int(0.9 * count_per_surface) and flip_ok
    return _report("period-additivity", ok, detail)


# -- criterion 7: first variation ------------------------------------------------

def _scaled_ctx(name):
    """Bundled surface scaled to area < 1 (fiber chart) plus cover+homology."""
    s, _, _ = ctx(name)
    a = area(s)
    scale = Fraction(1, 2)
    while scale * scale * a >= 1:
        scale /= 2
    st = s.scaled(scale)
    cv = build_cover(st)
    hv = homology_data(cv)
    return st, cv, hv


def check_first_variation(seed=17, families_per_surface=50):
    rng = random.Random(seed)
    detail = {}
    ok = True
    cfg = FDConfig(step=1e-4, richardson_levels=1, tolerance=1e-6)
    for name in bundled_names():
        st, cv, hv = _scaled_ctx(name)
        worst = 0.0
        neg_ok = 0
        neg_total = 0
        for k in range(families_per_surface):
            v1 = _random_vector(hv, rng).scale(Fraction(1, 12))
            v2 = _random_vector(hv, rng).scale(Fraction(1, 12))
            fam = _family(st, cv, hv, v1, v2)
            rep = first_variation_check(fam, cfg)
            worst = max(worst, rep.max_rel_err)
            if not rep.passed:
                ok = False
            case = rep.cases[0]
            v1u = complex(*case["v1_wedge_ubar"])
            formula = complex(*case["formula"])
            if abs(v1u) > 1e-6 * max(1.0, abs(formula)):
                neg_total += 1
                if case["reduced_rel_err"] >= 10 * cfg.tolerance:
                    neg_ok += 1
        detail[name] = {"families": families_per_surface,
                        "max_rel_err": worst,
                        "negative_controls": [neg_ok, neg_total]}
        ok = ok and (neg_total == 0 or neg_ok == neg_total) and neg_total > 0
    return _report("first-variation", ok, detail)


def _family(st, cv, hv, v1, v2):
    from .deformation import DeformationFamily

    return DeformationFamily(st, cv, hv, v1, v2)


# -- criterion 8: disk harmonicity ------------------------------------------------

def check_disk_harmonicity(d0s=(0.3, 0.7, 1.2), tol=1e-5):
    detail = {}
    ok = True
    s, _, _ = ctx("marked_torus")
    cfg = FDConfig(step=1e-3, richardson_levels=1, tolerance=tol)
    for d0 in d0s:
        rep = disk_harmonicity_check(s, d0, default_disk_grid(), cfg)
        detail[str(d0)] = {"max_abs_laplacian": rep.max_abs_err,
                           "points": len(rep.cases)}
        ok = ok and rep.passed and len(rep.cases) == 25
    return _report("disk-harmonicity", ok, detail)


# -- criterion 9: Demailly limit ---------------------------------------------------

def check_demailly(pairs=((0.3, 0.7), (0.1, 1.0)), tol=1e-3):
    detail = {}
    ok = True
    for d_x, d_y in pairs:
        rep = demailly_ratio(d_x, d_y, [4.0, 6.0, 8.0, 10.0])
        final_gap = rep.cases[-2]["gap"]
        gaps = [c["gap"] for c in rep.cases if "gap" in c]
        monotone = all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
        detail[f"{d_x},{d_y}"] = {"final_gap": final_gap, "monotone": monotone}
        ok = ok and final_gap <= tol and monotone
    return _report("demailly-limit", ok, detail)


# -- criterion 10: Thurston pairing consistency -------------------------------------

def check_thurston(seed=19, pairs_per_surface=100):
    rng = random.Random(seed)
    detail = {}
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        consistent = 0
        bilinear = True
        for _ in range(pairs_per_surface):
            x = _random_vector(h, rng, space="absolute")
            y = _psi_compatible(h, rng, x)
            try:
                t1 = thurston_pairing(h, x, y)
                consistent += 1
            except InconsistentFunctional:
                continue
            if thurston_pairing(h, x, x) != 0 or thurston_pairing(h, y, y) != 0:
                bilinear = False
            if thurston_pairing(h, y, x) != -t1:
                bilinear = False
            x2 = x.scale(Fraction(3, 2))
            if thurston_pairing(h, x2, y) != Fraction(3, 2) * t1:
                bilinear = False
        detail[name] = {"pairs": pairs_per_surface, "routes_equal": consistent,
                        "bilinear_antisymmetric": bilinear}
        ok = ok and consistent == pairs_per_surface and bilinear
    return _report("thurston-pairing", ok, detail)


def _psi_compatible(h, rng, x):
    """Random y with wedge(x, y) = 0 (psi-class pairs are isotropic)."""
    y = _random_vector(h, rng, space="absolute")
    w = wedge(h, x, y)
    if isinstance(w, QC) and w.is_zero():
        return y
    for _ in range(40):
        z = _random_vector(h, rng, space="absolute")
        wz = wedge(h, x, z)
        if isinstance(wz, QC) and not wz.is_zero():
            return y - z.scale(w / wz)
    return x.scale(_rand_qc(rng))  # fall back to a multiple of x


# -- criterion 11: Levi-form algebra --------------------------------------------------

def check_levi_algebra(seed=23, count=1000):
    rng = random.Random(seed)
    rep = scenario_identity_check(rng, count=count)
    summary = rep.cases[-1]
    return _report("levi-form-algebra", rep.passed, summary)


# -- criterion 12: Delaunay -------------------------------------------------------------

def check_delaunay(seed=29, random_surfaces=100):
    rng = random.Random(seed)
    detail = {}
    ok = True
    cases = []
    for name in bundled_names():
        s, _, _ = ctx(name)
        cases.append((name, s))
    per = max(1, random_surfaces // (2 * len(bundled_names())))
    for name in bundled_names():
        s, _, _ = ctx(name)
        for k in range(per):
            cases.append((f"{name}-flip{k}",
                          random_flip_variant(s, rng, rng.randint(1, 6))))
            cases.append((f"{name}-deform{k}",
                          random_deform_variant(s, rng)))
    n_checked = 0
    for label, s in cases:
        d, recs = delaunayize(s)
        flat, bad = is_delaunay(d)
        if not flat:
            ok = False
            detail[label] = {"certified": False, "violations": len(bad)}
            continue
        d2, recs2 = delaunayize(d)
        idem = not recs2 and d2.triangles == d.triangles
        preserved = area(d) == area(s) and symbol(d) == symbol(s)
        n_checked += 1
        if not (idem and preserved):
            ok = False
            detail[label] = {"idempotent": idem, "preserved": preserved}
    detail["surfaces_checked"] = n_checked
    detail["total_cases"] = len(cases)
    return _report("delaunay", ok and n_checked == len(cases), detail)


# -- criterion 13: stratum poset -----------------------------------------------------------

def check_strata_poset():
    detail = {}
    ok = True

    poset04 = SymbolPoset(0, 4)
    pillow_sym = make_symbol(0, 4, {}, -1)
    nodes04 = poset04.nodes
    ok04 = nodes04 == [pillow_sym] and poset04.edges == []
    maxima = poset04.maxima()
    ok04 = ok04 and pillow_sym in maxima
    detail["(0,4)"] = {"nodes": [str(s) for s in nodes04],
                       "edges": poset04.edges, "ok": ok04}
    ok = ok and ok04

    poset11 = SymbolPoset(1, 1)
    torus_sym = make_symbol(1, 0, {}, 1)
    generic11 = make_symbol(0, 1, {1: 1}, -1)
    expect_nodes = {torus_sym, generic11}
    ok11 = set(poset11.nodes) == expect_nodes and poset11.edges == []
    # both strata have dimension 2: no strictly-decreasing collision exists
    ok11 = ok11 and not degenerates_to(generic11, torus_sym, 1, 1)
    detail["(1,1)"] = {"nodes": [str(s) for s in poset11.nodes],
                       "edges": poset11.edges, "ok": ok11}
    ok = ok and ok11

    # dimension strictly decreases along edges of a richer poset
    poset20 = SymbolPoset(2, 0)
    dims = poset20.dims()
    strict = all(dims[i] > dims[j] for i, j in poset20.edges)
    top = make_symbol(0, 0, {1: 4}, -1)
    merged = make_symbol(0, 0, {2: 1, 1: 2}, -1)
    chain = degenerates_to(top, merged, 2, 0)
    detail["(2,0)"] = {"nodes": len(poset20.nodes), "edges": len(poset20.edges),
                       "strictly_decreasing": strict,
                       "simple_collision": chain}
    ok = ok and strict and chain
    return _report("strata-poset", ok, detail)


# -- driver ------------------------------------------------------------------------

ALL_CHECKS = [
    ("1", check_dimension_identity),
    ("2", check_cover_bookkeeping),
    ("3", check_area_identity),
    ("4", check_cup_oracle),
    ("5", check_geodesic_flow),
    ("6", check_period_additivity),
    ("7", check_first_variation),
    ("8", check_disk_harmonicity),
    ("9", check_demailly),
    ("10", check_thurston),
    ("11", check_levi_algebra),
    ("12", check_delaunay),
    ("13", check_strata_poset),
]


def run_all(printer=print):
    results = []
    for num, fn in ALL_CHECKS:
        rep = fn()
        results.append(rep)
        status = "PASS" if rep["passed"] else "FAIL"
        printer(f"[{status}] criterion {num}: {rep['name']}")
    passed = all(r["passed"] for r in results)
    return {"passed": passed, "criteria": results}
