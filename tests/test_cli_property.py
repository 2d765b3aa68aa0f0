"""CLI contract for any JSON input: exit 0, 1 or 2, and on a nonzero exit
exactly one JSON error line on stderr, never a traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdlab.builders import bundled_surface, bundled_surface_path
from qdlab.cli import main
from qdlab.cover import build_cover
from qdlab.homology import homology_data
from qdlab.io_json import vector_to_dict
from qdlab.periods import period_map

SURFACES = ("pillowcase", "marked_torus")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def _surface_doc(name):
    return json.loads(bundled_surface_path(name).read_text())


def _vector_doc(name):
    c = build_cover(bundled_surface(name))
    return vector_to_dict(period_map(c, homology_data(c)).scale(0))


def _paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _spoiled(doc):
    """``doc`` with one subtree replaced by an arbitrary JSON value."""
    def put(path, value):
        if not path:
            return value
        out = copy.deepcopy(doc)
        node = out
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        return out

    return st.builds(put, st.sampled_from(list(_paths(doc))), json_values)


def _documents(docs):
    """Arbitrary JSON values, valid documents, and valid documents with one
    subtree spoiled."""
    return st.one_of(json_values, st.sampled_from(docs),
                     *(_spoiled(d) for d in docs))


SURFACE_DOCS = [_surface_doc(n) for n in SURFACES]
COVER_DOCS = [{"base": d} for d in SURFACE_DOCS]
VECTOR_DOCS = [_vector_doc(n) for n in SURFACES]


def _run(argv_of, docs):
    """Write ``docs`` to files, run ``main(argv_of(paths, out))`` and check
    the exit-code contract."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"in{k}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv_of(paths, os.path.join(tmp, "out.json")))
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert isinstance(json.loads(lines[0])["error"], str)


PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("command", ["build", "cover", "delaunay"])
@PROPERTY
@given(doc=_documents(SURFACE_DOCS))
def test_surface_commands_on_any_json(command, doc):
    _run(lambda p, out: [command, p[0], "--out", out], [doc])


@PROPERTY
@given(doc=_documents(COVER_DOCS))
def test_homology_on_any_json(doc):
    _run(lambda p, out: ["homology", p[0], "--out", out], [doc])


@PROPERTY
@given(doc=_documents(COVER_DOCS), hom=json_values | st.just({}))
def test_periods_on_any_json(doc, hom):
    _run(lambda p, out: ["periods", p[0], p[1], "--out", out], [doc, hom])


@PROPERTY
@given(cover=st.sampled_from(COVER_DOCS), v=_documents(VECTOR_DOCS))
def test_deform_on_any_json_vector(cover, v):
    _run(lambda p, out: ["deform", p[0], "--v", p[1], "--out", out], [cover, v])
