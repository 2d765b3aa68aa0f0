"""qdlab command-line interface.

Commands: build, delaunay, cover, homology, periods, flow, deform, disk,
verify {first-variation, laplacian, disk, demailly, thurston, all}, strata.
Exit codes: 0 = success / all checks pass, 1 = a verification check failed,
2 = malformed input (machine-readable JSON error on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import __version__
from .builders import bundled_names, bundled_surface
from .cover import build_cover, cover_from_dict
from .delaunay import delaunayize, is_delaunay
from .deformation import geodesic_flow, teich_disk_point
from .errors import InputFormatError, QdlabError
from .homology import homology_data
from .io_json import (
    dump_json,
    load_json,
    surface_from_dict,
    surface_to_dict,
    vector_from_dict,
    vector_to_dict,
)
from .periods import period_map
from .strata import SymbolPoset
from .surface import area, stratum_dim, symbol


def _load_json_arg(path):
    try:
        return load_json(path)
    except FileNotFoundError as exc:
        raise InputFormatError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from exc


def _load_surface_arg(path, mode=None):
    s = surface_from_dict(_load_json_arg(path))
    if mode and mode != s.mode:
        if mode == "float":
            return s.to_float()
        raise InputFormatError("cannot promote a float surface to exact mode")
    return s


def _load_cover_arg(path):
    raw = _load_json_arg(path)
    try:
        return cover_from_dict(raw)
    except KeyError as exc:
        raise InputFormatError(f"bad cover file {path}: {exc}") from exc


def _emit(obj, out):
    text = dump_json(obj, out)
    if out is None:
        print(text)


def _maybe_svg(surface, path):
    if path:
        from .svg import save_svg

        save_svg(surface, path)


# -- subcommand handlers -------------------------------------------------------

def cmd_build(args):
    s = _load_surface_arg(args.surface, args.mode)
    cls = None
    if s.is_connected():
        sym = symbol(s)
        cls = {
            "symbol": sym.as_json(),
            "genus": s.genus(),
            "stratum_dim": stratum_dim(sym, s.genus()),
        }
    info = {
        "surface": surface_to_dict(s),
        "area": str(area(s)) if s.mode == "exact" else float(area(s)),
        "orders": {str(v): o for v, o in sorted(s.orders().items())},
        "euler_characteristic": s.euler_characteristic(),
        "classification": cls,
    }
    _emit(info, args.out)
    _maybe_svg(s, args.emit_svg)
    return 0


def cmd_delaunay(args):
    s = _load_surface_arg(args.surface, args.mode)
    d, records = delaunayize(s)
    ok, bad = is_delaunay(d)
    out = {
        "surface": surface_to_dict(d),
        "certified_delaunay": ok,
        "flips": len(records),
    }
    _emit(out, args.out)
    if args.emit_flips:
        dump_json([{
            "edge": r.edge,
            "incircle_before": str(r.incircle_before),
            "incircle_after": str(r.incircle_after),
            "violations_before": r.violations_before,
            "violations_after": r.violations_after,
        } for r in records], args.emit_flips)
    _maybe_svg(d, args.emit_svg)
    return 0 if ok else 1


def cmd_cover(args):
    s = _load_surface_arg(args.surface, args.mode)
    c = build_cover(s)
    _emit(c.as_json(), args.out)
    _maybe_svg(c.cover_surface, args.emit_svg)
    return 0


def cmd_homology(args):
    c = _load_cover_arg(args.cover)
    h = homology_data(c)
    out = {
        "basis_tag": h.basis_tag,
        "ranks": {
            "H1_abs": h.rank_abs(),
            "H1_rel": h.rank_rel(),
            "H1_abs_minus": h.rank_abs_minus(),
            "H1_rel_minus": h.rank_rel_minus(),
        },
        "intersection_matrix": [[str(x) for x in row] for row in h.J],
        "abs_minus_basis": [
            {str(h.reps[i]): str(c_) for i, c_ in enumerate(vec) if c_}
            for vec in h.abs_minus_basis
        ],
        "rel_minus_basis": [
            {str(h.reps[i]): str(c_) for i, c_ in enumerate(vec) if c_}
            for vec in h.rel_minus_basis
        ],
    }
    _emit(out, args.out)
    return 0


def cmd_periods(args):
    c = _load_cover_arg(args.cover)
    h = homology_data(c)
    if args.hom:
        hom_info = _load_json_arg(args.hom)
        if not isinstance(hom_info, dict):
            raise InputFormatError("homology file must be a JSON object")
        if hom_info.get("basis_tag") not in (None, h.basis_tag):
            raise InputFormatError("homology file does not match the cover")
    pv = period_map(c, h)
    _emit(vector_to_dict(pv), args.out)
    return 0


def cmd_flow(args):
    if not math.isfinite(args.t):
        raise InputFormatError(f"--t must be finite, got {args.t}")
    s = _load_surface_arg(args.surface)
    try:
        out = geodesic_flow(s, args.t)
    except OverflowError as exc:
        raise InputFormatError(f"--t {args.t} scales the surface out of "
                               f"floating-point range: {exc}") from None
    _emit(surface_to_dict(out), args.out)
    _maybe_svg(out, args.emit_svg)
    return 0


def cmd_deform(args):
    from .deformation import affine_deform

    c = _load_cover_arg(args.cover)
    h = homology_data(c)
    v = vector_from_dict(_load_json_arg(args.v))
    if v.basis_tag != h.basis_tag:
        raise InputFormatError("deformation vector bound to a different basis")
    c2 = affine_deform(c, h, v)
    _emit(c2.as_json(), args.out)
    _maybe_svg(c2.base, args.emit_svg)
    return 0


def _check_d0(d0):
    if not (math.isfinite(d0) and d0 > 0):
        raise InputFormatError(f"--d0 must be finite and positive, got {d0}")


def _parse_lambda(text):
    try:
        lam = complex(text.replace("i", "j"))
    except ValueError:
        raise InputFormatError(f"--lambda is not a complex number: {text!r}") from None
    if not cmath.isfinite(lam):
        raise InputFormatError(f"--lambda must be finite, got {text!r}")
    return lam


def cmd_disk(args):
    _check_d0(args.d0)
    lam = _parse_lambda(args.lam)
    s = _load_surface_arg(args.surface)
    surf, dist = teich_disk_point(s, args.d0, lam)
    out = {"distance": dist,
           "surface": None if surf is None else surface_to_dict(surf)}
    _emit(out, args.out)
    if surf is not None:
        _maybe_svg(surf, args.emit_svg)
    return 0


def cmd_strata(args):
    for flag, value in (("--g", args.g), ("--m", args.m)):
        if value < 0:
            raise InputFormatError(f"{flag} must be nonnegative, got {value}")
    poset = SymbolPoset(args.g, args.m)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(poset.to_dot() + "\n")
    _emit(poset.as_json(), args.out)
    return 0


def _check_verify_args(args):
    if args.count < 1:
        raise InputFormatError(f"--count must be at least 1, got {args.count}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputFormatError(f"--tol must be finite and positive, got {args.tol}")
    if args.suite != "bundled":
        raise InputFormatError(f"unknown suite {args.suite!r}")
    _check_d0(args.d0)


def cmd_verify(args):
    from . import verify as V

    _check_verify_args(args)
    tol = {} if args.tol is None else {"tol": args.tol}
    target = args.target
    net = None
    if target == "all":
        result = V.run_all()
    else:
        if target in ("first-variation", "laplacian"):
            check = (V.check_first_variation if target == "first-variation"
                     else V.check_laplacian)
            name = args.surface_name or "pillowcase"
            rep = check(args.seed, args.count, surfaces=(name,), **tol)
            net = V.scaled_surface(name)
        elif target == "disk":
            net = (_load_surface_arg(args.surface) if args.surface
                   else bundled_surface(args.surface_name or "marked_torus"))
            rep = V.check_disk_harmonicity(net, d0s=(args.d0,), **tol)
        elif target == "demailly":
            rep = V.check_demailly(pairs=((0.3, 0.7),), **tol)
        else:
            rep = V.check_thurston(args.seed, args.count)
        result = rep.as_json()
        print(f"[{'PASS' if rep.passed else 'FAIL'}] verify {target}")
    if args.report:
        dump_json(result, args.report)
    if net is not None:
        _maybe_svg(net, args.emit_svg)
    return 0 if result["passed"] else 1


# -- argument parsing -----------------------------------------------------------

def make_parser():
    p = argparse.ArgumentParser(prog="qdlab",
                                description="half-translation surface laboratory")
    p.add_argument("--version", action="version", version=f"qdlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output JSON path (default: stdout)")
        sp.add_argument("--mode", choices=["exact", "float"], default=None,
                        help="convert the input surface to this scalar mode")
        sp.add_argument("--emit-svg", dest="emit_svg",
                        help="write a developed-net SVG")

    sp = sub.add_parser("build", help="validate and canonicalize a surface")
    sp.add_argument("surface")
    common(sp)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("delaunay", help="certified Delaunay retriangulation")
    sp.add_argument("surface")
    sp.add_argument("--emit-flips", dest="emit_flips")
    common(sp)
    sp.set_defaults(fn=cmd_delaunay)

    sp = sub.add_parser("cover", help="orientation double cover")
    sp.add_argument("surface")
    common(sp)
    sp.set_defaults(fn=cmd_cover)

    sp = sub.add_parser("homology", help="anti-invariant homology of a cover")
    sp.add_argument("cover")
    common(sp)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("periods", help="period coordinates of a cover")
    sp.add_argument("cover")
    sp.add_argument("hom", nargs="?", help="homology JSON (tag check only)")
    common(sp)
    sp.set_defaults(fn=cmd_periods)

    sp = sub.add_parser("flow", help="Teichmuller geodesic flow")
    sp.add_argument("surface")
    sp.add_argument("--t", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_flow)

    sp = sub.add_parser("deform", help="piecewise affine deformation")
    sp.add_argument("cover")
    sp.add_argument("--v", required=True, help="period-vector JSON")
    common(sp)
    sp.set_defaults(fn=cmd_deform)

    sp = sub.add_parser("disk", help="Teichmuller disk point")
    sp.add_argument("surface")
    sp.add_argument("--d0", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="complex number, e.g. 0.1+0.2i "
                         "(use --lambda=-0.1+0.2i for negative values)")
    common(sp)
    sp.set_defaults(fn=cmd_disk)

    sp = sub.add_parser("strata", help="stratum symbol poset")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dot", help="write GraphViz DAG here")
    common(sp)
    sp.set_defaults(fn=cmd_strata)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("target", choices=["first-variation", "laplacian", "disk",
                                       "demailly", "thurston", "all"])
    sp.add_argument("--suite", default="bundled")
    sp.add_argument("--surface", help="surface JSON for disk checks")
    sp.add_argument("--surface-name", choices=bundled_names(),
                    help="bundled surface to use")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--d0", type=float, default=0.7)
    sp.add_argument("--report", help="write a JSON report here")
    sp.add_argument("--emit-svg", dest="emit_svg",
                    help="render the verification surface's developed net")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    from .errors import (
        NegativeNorm,
        NonTerminating,
        NormOutOfRange,
        OutOfDisk,
        SingularPoint,
        TriangleFlip,
    )

    check_failures = (TriangleFlip, NonTerminating, NegativeNorm,
                      NormOutOfRange, OutOfDisk, SingularPoint)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except check_failures as exc:
        print(json.dumps(exc.to_json(), sort_keys=True), file=sys.stderr)
        return 1
    except QdlabError as exc:
        print(json.dumps(exc.to_json(), sort_keys=True), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "InputFormatError", "detail": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
