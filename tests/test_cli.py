"""CLI end-to-end: exit codes, round trips, determinism."""

import json
from fractions import Fraction

import pytest

from qdlab.builders import bundled_surface_path
from qdlab.cli import main


def run(args):
    return main(list(args))


def test_build_bundled(tmp_path, capsys):
    out = tmp_path / "pc.json"
    code = run(["build", str(bundled_surface_path("pillowcase")),
                "--out", str(out)])
    assert code == 0
    info = json.loads(out.read_text())
    assert info["classification"]["genus"] == 0
    assert info["classification"]["stratum_dim"] == 2
    assert info["area"] == "2"


def test_build_round_trip_bit_exact(tmp_path):
    src = bundled_surface_path("genus2_generic")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["build", str(src), "--out", str(out1)]) == 0
    surf1 = json.loads(out1.read_text())["surface"]
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps(surf1))
    assert run(["build", str(mid), "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["surface"] == surf1


def test_malformed_surface_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "mode": "exact",
        "triangles": [[0, 1, 2], [3, 4, 5]],
        "edges": {str(i): {"re": v, "im": w} for i, (v, w) in enumerate(
            [("1", "0"), ("0", "1"), ("-1", "-2"),
             ("1", "2"), ("-1", "0"), ("0", "-1")])},
        "gluings": [[0, 4, 1], [1, 5, 1], [2, 3, 1]],
        "marked": [0],
    }))
    code = run(["build", str(bad)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] in ("ClosureViolation", "GluingMismatch")


@pytest.mark.parametrize("command", ["build", "cover"])
def test_gluing_to_edge_of_no_triangle_exit_2(tmp_path, capsys, command):
    raw = json.loads(bundled_surface_path("marked_torus").read_text())
    raw["gluings"].append([2, 9, 1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run([command, str(bad), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "GluingMismatch"


def _build_raw(tmp_path, raw):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(raw))
    return run(["build", str(path), "--out", str(tmp_path / "out.json")])


def _pillowcase_float():
    raw = json.loads(bundled_surface_path("pillowcase").read_text())
    raw["mode"] = "float"
    raw["edges"] = {k: {"re": repr(float(Fraction(v["re"]))),
                        "im": repr(float(Fraction(v["im"])))}
                    for k, v in raw["edges"].items()}
    return raw


# malformed files given to a command in place of one of its JSON inputs;
# "COVER" stands for a valid cover file
_BAD_JSON = {
    "vector_coords_int": (["deform", "COVER", "--v"], '{"basis_tag": "x", "coords": 5}'),
    "vector_list": (["deform", "COVER", "--v"], "[1]"),
    "vector_no_coords": (["deform", "COVER", "--v"], '{"basis_tag": "x"}'),
    "vector_no_tag": (["deform", "COVER", "--v"], '{"coords": []}'),
    "vector_not_json": (["deform", "COVER", "--v"], "not json"),
    "cover_list": (["homology"], "[1]"),
    "cover_no_base": (["homology"], '{"cover": {}}'),
    "hom_list": (["periods", "COVER"], "[1]"),
    # the pillowcase cover has relative minus rank 2; "TAG" stands for its
    # basis tag
    "vector_short": (["deform", "COVER", "--v"],
                     '{"basis_tag": "TAG", "coords": [{"re": "1/10", "im": "0"}]}'),
    "vector_long": (["deform", "COVER", "--v"],
                    '{"basis_tag": "TAG", "coords": ['
                    + ", ".join(['{"re": "1/10", "im": "0"}'] * 3) + ']}'),
}
# the error a malformed JSON input raises, when not InputFormatError
_BAD_JSON_ERROR = {"vector_short": "BasisMismatch", "vector_long": "BasisMismatch"}


@pytest.mark.parametrize("spoil", ["edges_list", "nan", "inf", *_BAD_JSON])
def test_bad_input_exit_2_json_error(tmp_path, capsys, spoil):
    if spoil in _BAD_JSON:
        args, text = _BAD_JSON[spoil]
        cov = tmp_path / "cover.json"
        assert run(["cover", str(bundled_surface_path("pillowcase")),
                    "--out", str(cov)]) == 0
        if "TAG" in text:
            hom = tmp_path / "hom.json"
            assert run(["homology", str(cov), "--out", str(hom)]) == 0
            text = text.replace("TAG", json.loads(hom.read_text())["basis_tag"])
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = [str(cov) if a == "COVER" else a for a in args] + [str(bad)]
        assert run(args) == 2
    else:
        raw = _pillowcase_float()
        assert _build_raw(tmp_path, raw) == 0
        capsys.readouterr()
        if spoil == "edges_list":
            raw["edges"] = list(raw["edges"].values())
        else:
            raw["edges"]["0"] = {"re": spoil, "im": "0"}
        assert _build_raw(tmp_path, raw) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == _BAD_JSON_ERROR.get(spoil,
                                                             "InputFormatError")


@pytest.mark.parametrize("spoil", ["sign_flipped", "marked_not_vertex_id"])
def test_build_checks_declared_sign_and_marked_ids(tmp_path, capsys, spoil):
    raw = json.loads(bundled_surface_path("marked_torus").read_text())
    if spoil == "sign_flipped":
        raw["gluings"][0][2] *= -1
        expected = "GluingMismatch"
    else:
        raw["marked"] = [1]
        expected = "SurfaceError"
    assert _build_raw(tmp_path, raw) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == expected


@pytest.mark.parametrize("bad", [
    ["flow", "SURFACE", "--t", "nan"], ["flow", "SURFACE", "--t", "inf"],
    ["flow", "SURFACE", "--t=-inf"], ["flow", "SURFACE", "--t=-1000"],
    ["flow", "SURFACE", "--t=-180"], ["flow", "SURFACE", "--t=-354"],
    ["flow", "SURFACE", "--t=1000"],
    ["strata", "--g=-1", "--m", "0"], ["strata", "--g", "1", "--m=-3"]],
    ids=["t_nan", "t_inf", "t_neg_inf", "t_overflow", "t_-180", "t_-354",
         "t_1000", "strata_g_neg", "strata_m_neg"])
def test_flow_and_strata_bad_args_exit_2(tmp_path, capsys, bad):
    out = tmp_path / "o.json"
    surface = str(bundled_surface_path("marked_torus"))
    args = [surface if a == "SURFACE" else a for a in bad]
    assert run([*args, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "InputFormatError"


def test_cover_homology_periods_pipeline(tmp_path):
    cov = tmp_path / "cover.json"
    hom = tmp_path / "hom.json"
    per = tmp_path / "per.json"
    assert run(["cover", str(bundled_surface_path("pillowcase")),
                "--out", str(cov)]) == 0
    assert run(["homology", str(cov), "--out", str(hom)]) == 0
    ranks = json.loads(hom.read_text())["ranks"]
    assert ranks["H1_rel_minus"] == 2
    assert run(["periods", str(cov), str(hom), "--out", str(per)]) == 0
    pv = json.loads(per.read_text())
    assert len(pv["coords"]) == 2


def test_deform_pipeline(tmp_path):
    cov = tmp_path / "cover.json"
    hom = tmp_path / "hom.json"
    vec = tmp_path / "v.json"
    out = tmp_path / "deformed.json"
    assert run(["cover", str(bundled_surface_path("marked_torus")),
                "--out", str(cov)]) == 0
    assert run(["homology", str(cov), "--out", str(hom)]) == 0
    tag = json.loads(hom.read_text())["basis_tag"]
    vec.write_text(json.dumps({
        "basis_tag": tag, "space": "relative", "mode": "exact",
        "coords": [{"re": "1/10", "im": "0"}, {"re": "0", "im": "-1/10"}],
    }))
    assert run(["deform", str(cov), "--v", str(vec), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["components"] == 2


def test_deform_too_large_exit_1(tmp_path, capsys):
    cov = tmp_path / "cover.json"
    per = tmp_path / "per.json"
    vec = tmp_path / "v.json"
    assert run(["cover", str(bundled_surface_path("marked_torus")),
                "--out", str(cov)]) == 0
    assert run(["periods", str(cov), "--out", str(per)]) == 0
    pv = json.loads(per.read_text())
    # v = -u collapses every triangle
    for c in pv["coords"]:
        c["re"] = str(-_frac(c["re"]))
        c["im"] = str(-_frac(c["im"]))
    vec.write_text(json.dumps(pv))
    capsys.readouterr()
    assert run(["deform", str(cov), "--v", str(vec)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TriangleFlip"


def _frac(s):
    from fractions import Fraction

    return Fraction(s)


def test_flow_and_disk(tmp_path):
    out = tmp_path / "f.json"
    assert run(["flow", str(bundled_surface_path("marked_torus")),
                "--t", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "float"
    out2 = tmp_path / "d.json"
    assert run(["disk", str(bundled_surface_path("marked_torus")),
                "--d0", "0.7", "--lambda", "0.1+0.2i", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["distance"] > 0


def test_delaunay_flips_emitted(tmp_path):
    # a skewed torus needs one flip
    from qdlab.builders import skewed_torus
    from qdlab.io_json import save_surface

    src = tmp_path / "skew.json"
    save_surface(skewed_torus(), src)
    out = tmp_path / "del.json"
    flips = tmp_path / "flips.json"
    assert run(["delaunay", str(src), "--out", str(out),
                "--emit-flips", str(flips)]) == 0
    assert json.loads(out.read_text())["certified_delaunay"]
    recs = json.loads(flips.read_text())
    assert len(recs) == 1 and recs[0]["edge"] == 2


def test_strata_dot(tmp_path):
    dot = tmp_path / "s.dot"
    out = tmp_path / "s.json"
    assert run(["strata", "--g", "0", "--m", "4", "--dot", str(dot),
                "--out", str(out)]) == 0
    assert "digraph" in dot.read_text()
    data = json.loads(out.read_text())
    assert len(data["nodes"]) == 1


_REPORT_KEYS = {"name", "passed", "tolerance", "max_abs_err", "max_rel_err",
                "cases"}


def test_verify_targets(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "demailly", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["passed"]
    assert run(["verify", "first-variation", "--count", "2",
                "--report", str(rep)]) == 0
    assert run(["verify", "laplacian", "--count", "2"]) == 0
    assert run(["verify", "disk", "--surface-name", "marked_torus",
                "--report", str(rep)]) == 0
    disk = json.loads(rep.read_text())
    assert set(disk) == _REPORT_KEYS
    assert [c["points"] for c in disk["cases"]] == [25]
    assert run(["verify", "disk", "--surface",
                str(bundled_surface_path("marked_torus")),
                "--report", str(tmp_path / "r2.json")]) == 0
    assert json.loads((tmp_path / "r2.json").read_text()) == disk
    assert run(["verify", "thurston", "--count", "2",
                "--report", str(rep)]) == 0
    thurston = json.loads(rep.read_text())
    assert [c["routes_equal"] for c in thurston["cases"]] == [2] * 4
    for target in ("first-variation", "disk"):
        svg = tmp_path / f"{target}.svg"
        assert run(["verify", target, "--count", "1",
                    "--emit-svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "</svg>" in text


def test_verify_all_report_shape(tmp_path, monkeypatch, capsys):
    from qdlab import verify as V

    monkeypatch.setattr(V, "ALL_CHECKS", [
        ("1", V.check_dimension_identity), ("13", V.check_strata_poset)])
    rep = tmp_path / "all.json"
    assert run(["verify", "all", "--report", str(rep)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] criterion 1: dimension-identity",
        "[PASS] criterion 13: strata-poset"]
    report = json.loads(rep.read_text())
    assert set(report) == {"passed", "criteria"} and report["passed"]
    assert [c["name"] for c in report["criteria"]] == [
        "dimension-identity", "strata-poset"]
    for crit in report["criteria"]:
        assert set(crit) == _REPORT_KEYS and crit["passed"]


@pytest.mark.parametrize("bad", [
    ["--count", "0"], ["--count=-3"], ["--tol", "0"], ["--tol=-1"],
    ["--tol", "nan"], ["--tol", "inf"], ["--suite", "bogus"],
    ["--d0=-1"], ["--d0", "0"], ["--d0", "nan"], ["--d0", "inf"]],
    ids=["count_0", "count_neg", "tol_0", "tol_neg", "tol_nan", "tol_inf",
         "suite_bogus", "d0_neg", "d0_0", "d0_nan", "d0_inf"])
def test_verify_bad_args_exit_2(capsys, bad):
    for target in ("first-variation", "laplacian", "disk", "demailly",
                   "thurston", "all"):
        assert run(["verify", target, *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "InputFormatError"


@pytest.mark.parametrize("bad", [
    ["--d0=-1", "--lambda", "0.1"], ["--d0", "nan", "--lambda", "0.1"],
    ["--d0", "inf", "--lambda", "0.1"], ["--d0", "0.7", "--lambda=nan"],
    ["--d0", "0.7", "--lambda=1e400"], ["--d0", "0.7", "--lambda=x"]],
    ids=["d0_neg", "d0_nan", "d0_inf", "lambda_nan", "lambda_inf",
         "lambda_garbage"])
def test_disk_bad_args_exit_2(tmp_path, capsys, bad):
    out = tmp_path / "d.json"
    assert run(["disk", str(bundled_surface_path("marked_torus")), *bad,
                "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "InputFormatError"


def test_verify_deterministic_report(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["verify", "first-variation", "--count", "2", "--seed", "5",
                "--report", str(r1)]) == 0
    assert run(["verify", "first-variation", "--count", "2", "--seed", "5",
                "--report", str(r2)]) == 0
    assert r1.read_text() == r2.read_text()


def test_svg_emission(tmp_path):
    svg = tmp_path / "net.svg"
    assert run(["build", str(bundled_surface_path("pillowcase")),
                "--out", str(tmp_path / "x.json"), "--emit-svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "</svg>" in text
