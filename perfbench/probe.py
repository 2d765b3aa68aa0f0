"""Counters and spans taken at the boundary of qdlab's public functions.

qdlab itself is not edited.  While the timed loop runs, :class:`Probe`
replaces module attributes of qdlab with wrappers and puts the originals back
afterwards.  A call is therefore seen wherever the attribute is looked up at
call time: in the benchmark's own code, in the function-local imports of
``random_deform_variant`` (its ``build_cover``, ``homology_data`` and
``affine_deform``), and in ``delaunayize``'s own calls to ``is_delaunay``.
Names that another qdlab module bound at its import (``levi``'s ``wedge``,
``deformation``'s ``period_map``) are not seen; their time stays in the
caller's span.

Untraced runs wrap only the two functions whose results feed the workload
properties (``homology_data`` and ``affine_deform``) and read no clock in the
wrapper.  Traced runs wrap every function in :data:`TRACED` and record one
span per call, kept in memory until the run ends, when
:meth:`Probe.write_spans` writes them out.
"""

from __future__ import annotations

import importlib
import json
from contextlib import nullcontext
from time import perf_counter

from qdlab.errors import TriangleFlip

# (module, attribute); the span name drops the "qdlab." prefix
TRACED = (
    ("qdlab.builders", "random_flip_variant"),
    ("qdlab.builders", "random_deform_variant"),
    ("qdlab.cover", "build_cover"),
    ("qdlab.homology", "homology_data"),
    ("qdlab.homology", "wedge"),
    ("qdlab.homology", "wedge_cup_oracle"),
    ("qdlab.periods", "period_map"),
    ("qdlab.delaunay", "delaunayize"),
    ("qdlab.delaunay", "is_delaunay"),
    ("qdlab.deformation", "affine_deform"),
    ("qdlab.levi", "first_variation_check"),
    ("qdlab.levi", "thurston_pairing"),
)
# spans the benchmark opens itself around a block of its own code
BLOCK_SPANS = ("levi.scenario",)
CASE_SPAN = "case"

COUNTED = (
    ("qdlab.homology", "homology_data"),
    ("qdlab.deformation", "affine_deform"),
)

_NULL = nullcontext()


def span_names():
    """Every span name a traced run reports, case spans excepted."""
    return [f"{m[6:]}.{a}" for m, a in TRACED] + list(BLOCK_SPANS)


class _Span:
    __slots__ = ("probe", "name", "index")

    def __init__(self, probe, name):
        self.probe = probe
        self.name = name

    def __enter__(self):
        p = self.probe
        self.index = len(p.spans)
        parent = p._stack[-1] if p._stack else -1
        p.spans.append([self.name, perf_counter(), None, parent, p.case])
        p._stack.append(self.index)

    def __exit__(self, *exc):
        p = self.probe
        p.spans[self.index][2] = perf_counter()
        p._stack.pop()
        return False


class Probe:
    """Counters always; spans (name, start, end, parent, case) when tracing."""

    def __init__(self, trace):
        self.trace = bool(trace)
        self.case = None
        self.spans = []
        self._stack = []
        self.homology_calls = 0
        self.homology_reps = 0
        self.repeat_keys = 0
        self._tags = set()
        self.deform_attempts = 0
        self.deform_flips = 0
        self.delaunay_flips = 0
        self._saved = []

    def span(self, name):
        return _Span(self, name) if self.trace else _NULL

    # -- result hooks ----------------------------------------------------
    def _after(self, name, out):
        if name == "homology.homology_data":
            self.homology_calls += 1
            self.homology_reps += len(out.reps)
            if out.basis_tag in self._tags:
                self.repeat_keys += 1
            self._tags.add(out.basis_tag)
        elif name == "delaunay.delaunayize":
            self.delaunay_flips += len(out[1])

    def _wrap(self, name, fn):
        deform = name == "deformation.affine_deform"

        def wrapper(*args, **kwargs):
            if deform:
                self.deform_attempts += 1
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except TriangleFlip:
                if deform:
                    self.deform_flips += 1
                raise
            self._after(name, out)
            return out

        return wrapper

    # -- install / restore -----------------------------------------------
    def __enter__(self):
        for mod_name, attr in (TRACED if self.trace else COUNTED):
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{mod_name[6:]}.{attr}", fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    # -- summaries ---------------------------------------------------------
    def write_spans(self, path):
        """One JSON object per line: id, name, start, end (perf_counter
        seconds), parent (a span id, -1 for none) and case index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for k, (name, start, end, parent, case) in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "case": case}) + "\n")

    def layer_stats(self, slowdown):
        """name -> (calls, self seconds); self time excludes child spans and
        is divided by ``slowdown[case]`` of the span's case."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for k, (name, start, end, _, case) in enumerate(self.spans):
            calls, busy = stats.get(name, (0, 0.0))
            own = ((end - start) - child[k]) / slowdown[case]
            stats[name] = (calls + 1, busy + own)
        return stats

    def repeat_key_frac(self):
        return self.repeat_keys / self.homology_calls if self.homology_calls else 0.0

    def flip_frac(self):
        return self.deform_flips / self.deform_attempts if self.deform_attempts else 0.0

