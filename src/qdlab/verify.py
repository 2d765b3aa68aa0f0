"""Bundled verification criteria: one function per acceptance criterion.

Every ``check_*`` returns a :class:`qdlab.levi.CheckReport`.  Its ``cases``
hold one entry per surface, d0, pair or poset, tagged with that key; counts
over the whole criterion sit in a last summary entry.  The family checks
(criterion 7 and the Laplacian check) also list every family, tagged with its
surface and family index.  ``run_all`` runs the thirteen criteria on the
bundled surfaces and prints one pass/fail line per criterion.  ``qdlab
verify`` and the pytest acceptance module call these same functions.
"""

from __future__ import annotations

import dataclasses
import functools
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
from .deformation import DeformationFamily, affine_deform, geodesic_flow
from .delaunay import delaunayize, is_delaunay
from .errors import InconsistentFunctional, TriangleFlip
from .exact import QC, QC_I
from .homology import homology_data, wedge, wedge_cup_oracle
from .levi import (
    CheckReport,
    FDConfig,
    default_disk_grid,
    demailly_ratio,
    disk_harmonicity_check,
    first_variation_check,
    laplacian_check_linear,
    scenario_identity_check,
    thurston_pairing,
)
from .periods import PeriodVector, period_map
from .strata import SymbolPoset, degenerates_to, realizable
from .surface import area, make_symbol, stratum_dim, symbol

EXPECTED_RANKS = {
    "pillowcase": 2,
    "marked_torus": 2,
    "l_origami": 4,
    "genus2_generic": 6,
}


@functools.cache
def ctx(name):
    """Bundled surface ``name`` with its double cover and homology."""
    s = bundled_surface(name)
    c = build_cover(s)
    return s, c, homology_data(c)


def _rand_qc(rng, span=4):
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
              Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def _random_vector(h, rng, space="relative", span=4):
    n = len(h.rel_minus_basis if space == "relative" else h.abs_minus_basis)
    return PeriodVector(tuple(_rand_qc(rng, span) for _ in range(n)),
                        h.basis_tag, space, "exact")


# -- criterion 1: dimension identity -----------------------------------------

def check_dimension_identity():
    cases = []
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        dim = stratum_dim(symbol(s), s.genus())
        r = h.rank_rel_minus()
        cases.append({"surface": name, "rank_rel_minus": r, "stratum_dim": dim,
                      "expected": EXPECTED_RANKS[name]})
        ok = ok and r == dim == EXPECTED_RANKS[name]
    return CheckReport("dimension-identity", ok, cases=cases)


# -- criterion 2: cover bookkeeping -------------------------------------------

def check_cover_bookkeeping():
    cases = []
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        chi0 = s.euler_characteristic()
        chic = c.cover_surface.euler_characteristic()
        n_o = len(c.classification.sigma_o)
        good = chic == 2 * chi0 - n_o
        entry = {"surface": name, "chi_base": chi0, "chi_cover": chic,
                 "branch": n_o}
        if name == "genus2_generic":
            comps = c.cover_surface.components()
            genus = c.cover_surface.component_genus(comps[0])
            good = good and len(comps) == 1 and genus == 5
            good = good and genus == 2 * s.genus() - 1 + n_o // 2
            entry["cover_genus"] = genus
        cases.append(entry)
        ok = ok and good
    return CheckReport("cover-bookkeeping", ok, cases=cases)


# -- criterion 3: Riemann area identity ----------------------------------------

def _area_identity_holds(s, c, h):
    u = period_map(c, h)
    val = QC_I * wedge(h, u, u.conjugate())
    target = 4 * area(s)
    return val == QC(target, 0), val


def check_area_identity(seed=7, count=100):
    rng = random.Random(seed)
    cases = []
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        good, val = _area_identity_holds(s, c, h)
        cases.append({"surface": name, "i_wedge_u_ubar": [str(val.re), str(val.im)],
                      "4area": str(4 * area(s)), "exact": good})
        ok = ok and good
    per = max(1, count // len(bundled_names()))
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
    cases.append({"random_flip_variants": checked})
    return CheckReport("riemann-area-identity", ok, cases=cases)


# -- criterion 4: cup-product oracle -------------------------------------------

def check_cup_oracle(seed=11, count=100):
    rng = random.Random(seed)
    cases = []
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        bad = 0
        for _ in range(count):
            x = _random_vector(h, rng, space="absolute")
            y = _random_vector(h, rng, space="absolute")
            if wedge(h, x, y) != wedge_cup_oracle(h, x, y):
                bad += 1
        cases.append({"surface": name, "pairs": count, "mismatches": bad})
        ok = ok and bad == 0
    return CheckReport("cup-product-oracle", ok, cases=cases)


# -- criterion 5: geodesic flow --------------------------------------------------

def check_geodesic_flow(ts=(0.1, 1.0, 5.0), tol=1e-12):
    cases = []
    ok = True
    worst = 0.0
    for name in bundled_names():
        s, c, h = ctx(name)
        sym0 = symbol(s)
        u0 = period_map(c, h)
        entry = {"surface": name}
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
            worst = max(worst, rel)
            ok = ok and rel <= tol and sym_ok and per_ok
        cases.append(entry)
    return CheckReport("geodesic-flow", ok, tol, max_rel_err=worst, cases=cases)


# -- criterion 6: period additivity ----------------------------------------------

def check_period_additivity(seed=13, count=100):
    rng = random.Random(seed)
    cases = []
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        u0 = period_map(c, h)
        good = 0
        for _ in range(count):
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
        cases.append({"surface": name, "exact_additive": good,
                      "attempted": count, "collapse_raises": flip_ok})
        ok = ok and good >= int(0.9 * count) and flip_ok
    return CheckReport("period-additivity", ok, cases=cases)


# -- criterion 7 and the Laplacian check: seeded linear families ----------------

def scaled_surface(name):
    """Bundled surface ``name`` scaled by a power of 1/2 to area < 1: the
    fiber chart, where the norm stays below 1 and its arctanh is a distance."""
    s = bundled_surface(name)
    a = area(s)
    scale = Fraction(1, 2)
    while scale * scale * a >= 1:
        scale /= 2
    return s.scaled(scale)


def _family_report(name, check, seed, count, surfaces, tol, controls=None):
    """``check(family, cfg)`` on ``count`` seeded families u + lam v1 +
    conj(lam) v2 per scaled surface, one rng across the surfaces.

    Each family's case is tagged with its surface and family index; a summary
    entry follows each surface.  ``controls(reports, tol)`` returns
    ``(summary fields, passed)`` for each surface.
    """
    rng = random.Random(seed)
    cfg = FDConfig(step=1e-4, richardson_levels=1, tolerance=tol)
    cases, reports = [], []
    ok = True
    for surface in surfaces or bundled_names():
        st = scaled_surface(surface)
        cv = build_cover(st)
        hv = homology_data(cv)
        reps = []
        for k in range(count):
            v1 = _random_vector(hv, rng).scale(Fraction(1, 12))
            v2 = _random_vector(hv, rng).scale(Fraction(1, 12))
            rep = check(DeformationFamily(st, cv, hv, v1, v2), cfg)
            reps.append(rep)
            cases.append({"surface": surface, "family": k, "passed": rep.passed,
                          "rel_err": rep.max_rel_err, **rep.cases[0]})
        extra, good = controls(reps, tol) if controls else ({}, True)
        cases.append({"surface": surface, "families": count,
                      "max_rel_err": max((r.max_rel_err for r in reps), default=0.0),
                      **extra})
        ok = ok and good and all(r.passed for r in reps)
        reports += reps
    return CheckReport(
        name, ok, tol,
        max_abs_err=max((r.max_abs_err for r in reports), default=0.0),
        max_rel_err=max((r.max_rel_err for r in reports), default=0.0),
        cases=cases)


def _negative_controls(reps, tol):
    """A family with v1^u-bar != 0 must miss the reduced first-variation
    formula, which drops that term."""
    hit = total = 0
    for rep in reps:
        case = rep.cases[0]
        v1u = complex(*case["v1_wedge_ubar"])
        formula = complex(*case["formula"])
        if abs(v1u) > 1e-6 * max(1.0, abs(formula)):
            total += 1
            if case["reduced_rel_err"] >= 10 * tol:
                hit += 1
    return {"negative_controls": [hit, total]}, 0 < total == hit


def check_first_variation(seed=17, count=50, surfaces=None, tol=1e-6):
    return _family_report("first-variation", first_variation_check, seed,
                          count, surfaces, tol, _negative_controls)


def check_laplacian(seed=17, count=50, surfaces=None, tol=1e-5):
    """FD Laplacian of the distance against its linear-family closed form
    (not one of the thirteen criteria)."""
    return _family_report("laplacian", laplacian_check_linear, seed, count,
                          surfaces, tol)


# -- criterion 8: disk harmonicity ------------------------------------------------

def check_disk_harmonicity(surface=None, d0s=(0.3, 0.7, 1.2), tol=1e-5):
    """On ``surface`` (default: the bundled marked torus)."""
    s = bundled_surface("marked_torus") if surface is None else surface
    cfg = FDConfig(step=1e-3, richardson_levels=1, tolerance=tol)
    cases = []
    for d0 in d0s:
        rep = disk_harmonicity_check(s, d0, default_disk_grid(), cfg)
        cases.append({"d0": d0, "passed": rep.passed,
                      "max_abs_laplacian": rep.max_abs_err,
                      "points": len(rep.cases), "grid": rep.cases})
    worst = max((c["max_abs_laplacian"] for c in cases), default=0.0)
    ok = all(c["passed"] and c["points"] == 25 for c in cases)
    return CheckReport("disk-harmonicity", ok, tol, worst, worst, cases)


# -- criterion 9: Demailly limit ---------------------------------------------------

def check_demailly(pairs=((0.3, 0.7), (0.1, 1.0)), tol=1e-3):
    cases = []
    for d_x, d_y in pairs:
        rep = demailly_ratio(d_x, d_y, [4.0, 6.0, 8.0, 10.0])
        gaps = [c["gap"] for c in rep.cases if "gap" in c]
        monotone = all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
        cases.append({"pair": [d_x, d_y], "final_gap": gaps[-1],
                      "monotone": monotone, "ray": rep.cases})
    worst = max((c["final_gap"] for c in cases), default=0.0)
    ok = all(c["final_gap"] <= tol and c["monotone"] for c in cases)
    return CheckReport("demailly-limit", ok, tol, worst, worst, cases)


# -- criterion 10: Thurston pairing consistency -------------------------------------

def check_thurston(seed=19, count=100):
    rng = random.Random(seed)
    cases = []
    ok = True
    for name in bundled_names():
        s, c, h = ctx(name)
        consistent = 0
        bilinear = True
        for _ in range(count):
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
        cases.append({"surface": name, "pairs": count, "routes_equal": consistent,
                      "bilinear_antisymmetric": bilinear})
        ok = ok and consistent == count and bilinear
    return CheckReport("thurston-pairing", ok, cases=cases)


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
    rep = scenario_identity_check(random.Random(seed), count=count)
    return dataclasses.replace(rep, name="levi-form-algebra")


# -- criterion 12: Delaunay -------------------------------------------------------------

def check_delaunay(seed=29, count=100):
    rng = random.Random(seed)
    surfaces = [(name, ctx(name)[0]) for name in bundled_names()]
    per = max(1, count // (2 * len(bundled_names())))
    for name in bundled_names():
        s, _, _ = ctx(name)
        for k in range(per):
            surfaces.append((f"{name}-flip{k}",
                             random_flip_variant(s, rng, rng.randint(1, 6))))
            surfaces.append((f"{name}-deform{k}",
                             random_deform_variant(s, rng)))
    cases = []
    n_checked = 0
    for label, s in surfaces:
        d, recs = delaunayize(s)
        flat, bad = is_delaunay(d)
        if not flat:
            cases.append({"surface": label, "certified": False,
                          "violations": len(bad)})
            continue
        d2, recs2 = delaunayize(d)
        idem = not recs2 and d2.triangles == d.triangles
        preserved = area(d) == area(s) and symbol(d) == symbol(s)
        n_checked += 1
        if not (idem and preserved):
            cases.append({"surface": label, "idempotent": idem,
                          "preserved": preserved})
    ok = not cases and n_checked == len(surfaces)
    cases.append({"surfaces_checked": n_checked, "total_cases": len(surfaces)})
    return CheckReport("delaunay", ok, cases=cases)


# -- criterion 13: stratum poset -----------------------------------------------------------

def check_strata_poset():
    poset04 = SymbolPoset(0, 4)
    pillow_sym = make_symbol(0, 4, {}, -1)
    nodes04 = poset04.nodes
    ok04 = nodes04 == [pillow_sym] and poset04.edges == []
    ok04 = ok04 and pillow_sym in poset04.maxima()

    # Q(1, -1) is empty in genus 1 (Masur-Smillie), so the square torus is
    # the only node
    poset11 = SymbolPoset(1, 1)
    torus_sym = make_symbol(1, 0, {}, 1)
    empty11 = make_symbol(0, 1, {1: 1}, -1)
    ok11 = poset11.nodes == [torus_sym] and poset11.edges == []
    ok11 = ok11 and not realizable(empty11, 1)
    ok11 = ok11 and not degenerates_to(empty11, torus_sym, 1, 1)

    # dimension strictly decreases along edges of a richer poset, which
    # lacks the empty Q(4) and Q(3, 1)
    poset20 = SymbolPoset(2, 0)
    dims = poset20.dims()
    strict = all(dims[i] > dims[j] for i, j in poset20.edges)
    top = make_symbol(0, 0, {1: 4}, -1)
    merged = make_symbol(0, 0, {2: 1, 1: 2}, -1)
    chain = degenerates_to(top, merged, 2, 0)
    empty20 = [make_symbol(0, 0, {4: 1}, -1), make_symbol(0, 0, {3: 1, 1: 1}, -1)]
    dropped = not any(s in poset20.nodes or degenerates_to(top, s, 2, 0)
                      for s in empty20)
    cases = [
        {"poset": "(0,4)", "nodes": [str(s) for s in nodes04],
         "edges": poset04.edges, "ok": ok04},
        {"poset": "(1,1)", "nodes": [str(s) for s in poset11.nodes],
         "edges": poset11.edges, "ok": ok11},
        {"poset": "(2,0)", "nodes": len(poset20.nodes),
         "edges": len(poset20.edges), "strictly_decreasing": strict,
         "simple_collision": chain, "empty_strata_dropped": dropped},
    ]
    return CheckReport("strata-poset", ok04 and ok11 and strict and chain
                       and dropped, cases=cases)


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


def run_all():
    """Run the thirteen criteria, printing one PASS/FAIL line each."""
    criteria = []
    for num, fn in ALL_CHECKS:
        rep = fn()
        print(f"[{'PASS' if rep.passed else 'FAIL'}] criterion {num}: {rep.name}")
        criteria.append(rep.as_json())
    return {"passed": all(r["passed"] for r in criteria), "criteria": criteria}
