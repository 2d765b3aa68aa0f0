"""Acceptance gate: the thirteen bundled verification criteria.

Each test runs one criterion at its stated tolerance and prints a PASS/FAIL
line; the same battery backs ``qdlab verify all --suite bundled``.
"""

import json
import time

from qdlab import verify as V


def _run(num, fn, **kw):
    rep = fn(**kw)
    status = "PASS" if rep.passed else "FAIL"
    print(f"[{status}] criterion {num}: {rep.name}")
    assert rep.passed, json.dumps(rep.cases, default=str)[:2000]
    return rep


def _surfaces(rep):
    """The per-surface entries of a report (four bundled surfaces)."""
    entries = [c for c in rep.cases if "surface" in c and "family" not in c]
    assert len(entries) == 4
    return entries


def test_criterion_01_dimension_identity_under_5s():
    t0 = time.time()
    _run(1, V.check_dimension_identity)
    assert time.time() - t0 < 5.0


def test_criterion_02_cover_bookkeeping():
    _run(2, V.check_cover_bookkeeping)


def test_criterion_03_riemann_area_identity():
    rep = _run(3, V.check_area_identity, seed=7, count=100)
    assert rep.cases[-1]["random_flip_variants"] >= 100


def test_criterion_04_cup_product_oracle():
    rep = _run(4, V.check_cup_oracle, seed=11, count=100)
    for entry in _surfaces(rep):
        assert entry["pairs"] == 100 and entry["mismatches"] == 0


def test_criterion_05_geodesic_flow():
    _run(5, V.check_geodesic_flow, ts=(0.1, 1.0, 5.0), tol=1e-12)


def test_criterion_06_period_additivity():
    rep = _run(6, V.check_period_additivity, seed=13, count=100)
    for entry in _surfaces(rep):
        assert entry["collapse_raises"]


def test_criterion_07_first_variation():
    rep = _run(7, V.check_first_variation, seed=17, count=50)
    for entry in _surfaces(rep):
        assert entry["max_rel_err"] <= 1e-6
        ok, total = entry["negative_controls"]
        assert total > 0 and ok == total


def test_criterion_08_disk_harmonicity():
    rep = _run(8, V.check_disk_harmonicity, d0s=(0.3, 0.7, 1.2), tol=1e-5)
    for entry in rep.cases:
        assert entry["points"] == 25
        assert entry["max_abs_laplacian"] < 1e-5


def test_criterion_09_demailly_limit():
    rep = _run(9, V.check_demailly, pairs=((0.3, 0.7), (0.1, 1.0)), tol=1e-3)
    for entry in rep.cases:
        assert entry["final_gap"] <= 1e-3 and entry["monotone"]


def test_criterion_10_thurston_pairing():
    rep = _run(10, V.check_thurston, seed=19, count=100)
    for entry in _surfaces(rep):
        assert entry["routes_equal"] == 100
        assert entry["bilinear_antisymmetric"]


def test_criterion_11_levi_form_algebra():
    rep = _run(11, V.check_levi_algebra, seed=23, count=1000)
    assert rep.cases[-1]["count"] == 1000
    assert rep.cases[-1]["failures"] == 0


def test_criterion_12_delaunay():
    rep = _run(12, V.check_delaunay, seed=29, count=100)
    assert rep.cases[-1]["total_cases"] >= 100


def test_criterion_13_strata_poset():
    _run(13, V.check_strata_poset)
