"""Stratum-symbol combinatorics: enumeration and collision adjacency.

A symbol packs (free marked points, pole count, zero orders, squareness).
Collision moves merge two or more special points; orders add, at most one of
the colliding points may be marked (marked points are distinct points of the
underlying marked surface, so two of them can never meet -- the free/free
prohibition extends to every marked pair), and the merged point inherits the
mark.  A marked merge of total order zero is a free marked point again.

The squareness flag can only move -1 -> +1, and only onto an all-even,
pole-free configuration.  Every admissible move must strictly decrease the
stratum dimension; this in particular forbids the two-point collision onto a
square stratum of equal dimension, keeping the poset a ranked DAG.

``degenerates_to`` answers reachability at the level of marked/unmarked
point assignments (breadth-first over collision sequences), which is finer
than symbol-level edge composition.

``enumerate_symbols`` lists every arithmetically consistent symbol, but four
of those strata contain no surface (Masur-Smillie, Comment. Math. Helv.
1993): with epsilon = -1, Q(0) and Q(1, -1) in genus 1 and Q(4) and Q(3, 1)
in genus 2, together with their variants carrying free marked points.
:func:`realizable` rejects them; ``SymbolPoset`` drops them from its nodes
and edges, and ``degenerates_to`` is False when either end is one of them.
"""

from __future__ import annotations

from itertools import product

from .errors import InconsistentSymbol, MismatchedType
from .surface import StratumSymbol, make_symbol, stratum_dim


def _partitions(total, max_part=None):
    """Partitions of ``total`` into parts >= 1, descending."""
    if total == 0:
        yield ()
        return
    if max_part is None:
        max_part = total
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


# (genus, singular orders) of the empty strata of non-square differentials
_EMPTY_STRATA = {(1, ()), (1, (-1, 1)), (2, (4,)), (2, (1, 3))}


def realizable(sym: StratumSymbol, g: int) -> bool:
    """Whether some surface of genus g has the symbol ``sym``, which must be
    arithmetically consistent.  Every stratum of squares is realized; of the
    others only the four Masur-Smillie strata are empty, whatever the number
    of free marked points."""
    if sym.epsilon == 1:
        return True
    orders = (-1,) * sym.n_poles + tuple(l for l, n in sym.n_zeros
                                         for _ in range(n))
    return (g, orders) not in _EMPTY_STRATA


def enumerate_symbols(g: int, m: int):
    """All arithmetically consistent symbols for genus g with m marked points."""
    if 2 * g - 2 + m <= 0:
        return []
    out = []
    for p in range(0, m + 1):
        z_total = 4 * g - 4 + p
        if z_total < 0:
            continue
        for parts in _partitions(z_total):
            zeros = {}
            for l in parts:
                zeros[l] = zeros.get(l, 0) + 1
            n_zero_pts = len(parts)
            # marked bookkeeping: m = m_free + p + (marked zeros)
            for m_free in range(0, m - p + 1):
                k = m - p - m_free
                if k > n_zero_pts:
                    continue
                no_sing = (p == 0 and n_zero_pts == 0)
                eps_options = []
                if no_sing:
                    eps_options = [1]   # no singularities forces a square torus
                else:
                    eps_options.append(-1)
                    if p == 0 and all(l % 2 == 0 for l in parts):
                        eps_options.append(1)
                for eps in eps_options:
                    out.append(make_symbol(m_free, p, zeros, eps))
    uniq = sorted(set(out), key=lambda s: (-stratum_dim(s, g), s.n_poles,
                                           s.m_free, s.n_zeros, -s.epsilon))
    return uniq


# ---------------------------------------------------------------------------
# assignment states: multiset of (order, marked) points plus epsilon
# ---------------------------------------------------------------------------

def _assignments(sym: StratumSymbol, m: int):
    """All marked/unmarked splits of the zeros compatible with m."""
    k = m - sym.m_free - sym.n_poles
    if k < 0:
        return
    orders = [l for l, _ in sym.n_zeros]
    counts = [n for _, n in sym.n_zeros]
    if k > sum(counts):
        return
    ranges = [range(0, c + 1) for c in counts]
    for marks in product(*ranges):
        if sum(marks) != k:
            continue
        pts = {}
        if sym.n_poles:
            pts[(-1, True)] = sym.n_poles
        if sym.m_free:
            pts[(0, True)] = sym.m_free
        for l, c, mk in zip(orders, counts, marks):
            if mk:
                pts[(l, True)] = pts.get((l, True), 0) + mk
            if c - mk:
                pts[(l, False)] = pts.get((l, False), 0) + (c - mk)
        yield _state(pts, sym.epsilon)


def _state(pts, eps):
    return (tuple(sorted((k, v) for k, v in pts.items() if v > 0)), eps)


def _state_symbol(state):
    pts, eps = state
    m_free = 0
    poles = 0
    zeros = {}
    for (l, mk), c in pts:
        if l == -1:
            poles += c
        elif l == 0:
            m_free += c
        else:
            zeros[l] = zeros.get(l, 0) + c
    return make_symbol(m_free, poles, zeros, eps)


def _state_dim(state, g):
    return stratum_dim(_state_symbol(state), g)


def _single_moves(state, g):
    """All states reachable by one admissible collision."""
    pts, eps = state
    types = list(pts)
    out = set()
    ranges = []
    for (l, mk), c in pts:
        ranges.append(range(0, c + 1))
    for chosen in product(*ranges):
        size = sum(chosen)
        if size < 2:
            continue
        marked_chosen = sum(c for ((l, mk), _), c in zip(pts, chosen) if mk)
        if marked_chosen > 1:
            continue
        L = sum(l * c for ((l, mk), _), c in zip(pts, chosen))
        if L < -1:
            continue
        new_marked = marked_chosen == 1
        if L == 0 and not new_marked:
            continue  # cannot happen (needs a marked pole), guard anyway
        if L == -1 and not new_marked:
            continue
        newpts = {}
        for ((key, _cnt), c) in zip(pts, chosen):
            rest = dict(pts)[key] - c
            if rest:
                newpts[key] = rest
        key = (L, new_marked)
        newpts[key] = newpts.get(key, 0) + 1
        has_sing = any(l != 0 for (l, mk) in newpts)
        if eps == 1:
            eps_opts = [1]
        else:
            eps_opts = []
            if has_sing:
                eps_opts.append(-1)
            if all(l % 2 == 0 and l >= 0 for (l, mk) in newpts):
                eps_opts.append(1)
        for new_eps in eps_opts:
            cand = _state(newpts, new_eps)
            try:
                if _state_dim(cand, g) < _state_dim(state, g):
                    out.add(cand)
            except InconsistentSymbol:
                continue
    return out


def degenerates_to(a: StratumSymbol, b: StratumSymbol, g: int, m: int) -> bool:
    """True iff b arises from a by a nonempty sequence of collisions."""
    for sym, name in ((a, "a"), (b, "b")):
        if sym.order_sum() != 4 * g - 4:
            raise MismatchedType(f"symbol {name} does not match genus {g}")
        if sym.m_free + sym.n_poles > m:
            raise MismatchedType(f"symbol {name} does not fit m={m}")
    if a == b or not (realizable(a, g) and realizable(b, g)):
        return False
    if stratum_dim(b, g) >= stratum_dim(a, g):
        return False
    targets = set(_assignments(b, m))
    if not targets:
        return False
    frontier = set(_assignments(a, m))
    seen = set(frontier)
    while frontier:
        nxt = set()
        for st in frontier:
            for mv in _single_moves(st, g):
                if mv in targets:
                    return True
                if mv not in seen:
                    seen.add(mv)
                    nxt.add(mv)
        frontier = nxt
    return False


class SymbolPoset:
    """Realizable symbols for fixed (g, m) with single-collision adjacency
    edges."""

    def __init__(self, g: int, m: int):
        self.g, self.m = g, m
        self.nodes = [s for s in enumerate_symbols(g, m) if realizable(s, g)]
        index = {s: i for i, s in enumerate(self.nodes)}
        edges = set()
        for i, sym in enumerate(self.nodes):
            succ = set()
            for st in _assignments(sym, m):
                for mv in _single_moves(st, g):
                    succ.add(_state_symbol(mv))
            for t in succ:
                j = index.get(t)
                if j is not None and j != i:
                    edges.add((i, j))
        self.edges = sorted(edges)

    def dims(self):
        return [stratum_dim(s, self.g) for s in self.nodes]

    def maxima(self):
        """Nodes with no incoming edge."""
        has_in = {j for _, j in self.edges}
        return [s for i, s in enumerate(self.nodes) if i not in has_in]

    def to_dot(self):
        lines = ["digraph strata {", "  rankdir=TB;"]
        dims = self.dims()
        for i, s in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{s}\\ndim {dims[i]}"];')
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def as_json(self):
        return {
            "g": self.g,
            "m": self.m,
            "nodes": [s.as_json() | {"dim": stratum_dim(s, self.g)}
                      for s in self.nodes],
            "edges": list(self.edges),
        }
