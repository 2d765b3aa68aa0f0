"""JSON serialization for surfaces, covers, homology data and vectors.

Surface format (the on-disk interchange format):

    {
      "mode":      "exact" | "float",
      "triangles": [[e, e, e], ...],          # directed edge ids, ccw
      "edges":     {"<e>": {"re": "p/q", "im": "p/q"}, ...},
      "gluings":   [[e, e', sign], ...],      # sign in {+1, -1}
      "marked":    [v, ...]                    # canonical vertex ids
    }

In exact mode re/im are rational strings ("3/2", "-1"); in float mode they
are decimal strings.  A vertex id is the smallest directed-edge id whose tail
lies at that vertex (vertices are derived combinatorially, see surface.py).

Everything written by qdlab has sorted keys and sorted ids, so rational-mode
round trips are byte-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import InputFormatError
from .exact import QC
from .surface import FlatSurface, make_surface


def _scalar_to_json(v, mode):
    if mode == "exact":
        return {"re": str(v.re), "im": str(v.im)}
    c = complex(v)
    return {"re": repr(c.real), "im": repr(c.imag)}


def _scalar_from_json(obj, mode):
    try:
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad edge vector entry: {obj!r}") from exc
    if mode == "exact":
        try:
            return QC(Fraction(str(re)), Fraction(str(im)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational in {obj!r}") from exc
    try:
        z = complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"bad decimal in {obj!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputFormatError(f"non-finite edge vector {obj!r}")
    return z


def surface_to_dict(s: FlatSurface):
    pairs = set()
    gl = []
    for e in sorted(s.glue):
        f = s.glue[e]
        key = (min(e, f), max(e, f))
        if key in pairs:
            continue
        pairs.add(key)
        gl.append([key[0], key[1], s.sign[key[0]]])
    return {
        "mode": s.mode,
        "triangles": [list(t) for t in s.triangles],
        "edges": {str(e): _scalar_to_json(s.vec[e], s.mode) for e in sorted(s.vec)},
        "gluings": gl,
        "marked": sorted(s.marked),
    }


def surface_from_dict(raw) -> FlatSurface:
    if not isinstance(raw, dict):
        raise InputFormatError("surface description must be a JSON object")
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise InputFormatError(f"unknown mode {mode!r}")
    try:
        triangles = [tuple(int(e) for e in t) for t in raw["triangles"]]
        if any(len(t) != 3 for t in triangles):
            raise InputFormatError("each triangle needs exactly three edges")
        if not isinstance(raw["edges"], dict):
            raise InputFormatError("\"edges\" must be a JSON object")
        edges = {int(k): _scalar_from_json(v, mode) for k, v in raw["edges"].items()}
        gluings = [(int(a), int(b), int(sg)) for a, b, sg in raw["gluings"]]
        marked = [int(v) for v in raw.get("marked", [])]
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed surface description: {exc}") from exc
    return make_surface(triangles, edges, gluings, marked, mode)


def dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_surface(s: FlatSurface, path):
    dump_json(surface_to_dict(s), path)


# -- period vectors ----------------------------------------------------------

def vector_to_dict(pv):
    return {"basis_tag": pv.basis_tag, "space": pv.space, "mode": pv.mode,
            "coords": [_scalar_to_json(z, pv.mode) for z in pv.coords]}


def vector_from_dict(raw):
    from .periods import PeriodVector

    if not isinstance(raw, dict):
        raise InputFormatError("period vector must be a JSON object")
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise InputFormatError(f"unknown mode {mode!r}")
    if not isinstance(raw.get("coords"), list):
        raise InputFormatError("period vector needs a \"coords\" list")
    if not isinstance(raw.get("basis_tag"), str):
        raise InputFormatError("period vector needs a \"basis_tag\" string")
    coords = [_scalar_from_json(c, mode) for c in raw["coords"]]
    return PeriodVector(tuple(coords), raw["basis_tag"], raw.get("space", "relative"),
                        mode)
