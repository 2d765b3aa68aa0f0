"""Symbol enumeration and the collision partial order."""

import pytest

from qdlab.errors import MismatchedType
from qdlab.strata import SymbolPoset, degenerates_to, enumerate_symbols, realizable
from qdlab.surface import make_symbol, stratum_dim


class TestEnumeration:
    def test_0_4_only_pillowcase(self):
        syms = enumerate_symbols(0, 4)
        assert syms == [make_symbol(0, 4, {}, -1)]

    def test_1_1_two_symbols(self):
        syms = set(enumerate_symbols(1, 1))
        assert syms == {make_symbol(1, 0, {}, 1),
                        make_symbol(0, 1, {1: 1}, -1)}

    def test_0_1_empty(self):
        assert enumerate_symbols(0, 1) == []

    def test_2_0_contains_generic_and_squares(self):
        syms = set(enumerate_symbols(2, 0))
        assert make_symbol(0, 0, {1: 4}, -1) in syms
        assert make_symbol(0, 0, {4: 1}, 1) in syms
        assert make_symbol(0, 0, {2: 2}, 1) in syms
        assert make_symbol(0, 0, {2: 2}, -1) in syms
        # no poles possible with m = 0
        assert all(s.n_poles == 0 for s in syms)

    def test_order_sums(self):
        for g, m in ((0, 4), (1, 1), (1, 2), (2, 0), (2, 1)):
            for s in enumerate_symbols(g, m):
                assert s.order_sum() == 4 * g - 4
                assert s.m_free + s.n_poles <= m

    def test_square_symbols_all_even(self):
        for s in enumerate_symbols(2, 1):
            if s.epsilon == 1:
                assert s.n_poles == 0
                assert all(l % 2 == 0 for l, _ in s.n_zeros)


class TestDegeneration:
    def test_two_simple_zeros_merge(self):
        a = make_symbol(0, 0, {1: 4}, -1)
        b = make_symbol(0, 0, {2: 1, 1: 2}, -1)
        assert degenerates_to(a, b, 2, 0)
        assert not degenerates_to(b, a, 2, 0)

    def test_free_marked_point_onto_zero(self):
        a = make_symbol(1, 0, {1: 4}, -1)     # g=2, m=1, free marked point
        b = make_symbol(0, 0, {1: 4}, -1)     # mark consumed by a zero
        assert degenerates_to(a, b, 2, 1)

    def test_dimension_monotone(self):
        a = make_symbol(0, 0, {2: 1, 1: 2}, -1)
        top = make_symbol(0, 0, {1: 4}, -1)
        assert stratum_dim(a, 2) < stratum_dim(top, 2)
        assert not degenerates_to(a, top, 2, 0)

    def test_irreflexive(self):
        a = make_symbol(0, 0, {1: 4}, -1)
        assert not degenerates_to(a, a, 2, 0)

    def test_multi_step_reachability(self):
        # two disjoint pairs of zeros merge in two collisions, through
        # Q(2,1,1); Q(4) is no target, its stratum is empty
        top = make_symbol(0, 0, {1: 4}, -1)
        deep = make_symbol(0, 0, {2: 2}, -1)
        assert degenerates_to(top, deep, 2, 0)
        assert not degenerates_to(top, make_symbol(0, 0, {4: 1}, -1), 2, 0)

    def test_epsilon_flip_needs_dimension_drop(self):
        # collapsing all four simple zeros onto the square locus is fine
        top = make_symbol(0, 0, {1: 4}, -1)
        square = make_symbol(0, 0, {4: 1}, 1)
        assert degenerates_to(top, square, 2, 0)
        # a single two-point collision onto the square stratum of equal
        # dimension is forbidden
        a = make_symbol(0, 0, {2: 1, 1: 2}, -1)   # dim 5
        b = make_symbol(0, 0, {2: 2}, 1)          # dim 5
        assert stratum_dim(a, 2) == stratum_dim(b, 2)
        assert not degenerates_to(a, b, 2, 0)

    def test_pole_and_zero_merge_to_torus(self):
        a = make_symbol(0, 1, {1: 1}, -1)
        b = make_symbol(1, 0, {}, 1)
        # Q(1,-1) is empty in genus 1, so it degenerates to nothing; the
        # move would also not drop the dimension
        assert not realizable(a, 1) and realizable(b, 1)
        assert stratum_dim(a, 1) == stratum_dim(b, 1)
        assert not degenerates_to(a, b, 1, 1)
        assert not degenerates_to(b, a, 1, 1)

    def test_mismatched_genus_raises(self):
        a = make_symbol(0, 0, {1: 4}, -1)
        b = make_symbol(0, 4, {}, -1)
        with pytest.raises(MismatchedType):
            degenerates_to(a, b, 2, 0)

    def test_transitivity_sample(self):
        g, m = 2, 0
        syms = enumerate_symbols(g, m)
        rel = {}
        for a in syms:
            for b in syms:
                if a != b:
                    rel[(a, b)] = degenerates_to(a, b, g, m)
        for a in syms:
            for b in syms:
                for c in syms:
                    if a != b and b != c and a != c:
                        if rel.get((a, b)) and rel.get((b, c)):
                            assert rel.get((a, c)), (str(a), str(b), str(c))


class TestPoset:
    def test_0_4(self):
        p = SymbolPoset(0, 4)
        assert p.nodes == [make_symbol(0, 4, {}, -1)]
        assert p.edges == []
        assert p.maxima() == [make_symbol(0, 4, {}, -1)]

    def test_1_1(self):
        # Q(1,-1) is enumerated but empty (Masur-Smillie 1993)
        p = SymbolPoset(1, 1)
        assert p.nodes == [make_symbol(1, 0, {}, 1)]
        assert p.edges == []

    def test_2_0_strictly_decreasing(self):
        p = SymbolPoset(2, 0)
        dims = p.dims()
        assert p.edges
        for i, j in p.edges:
            assert dims[i] > dims[j]
        # the generic stratum is the unique maximum among nodes that admit
        # degenerations
        top = make_symbol(0, 0, {1: 4}, -1)
        assert top in p.maxima()

    def test_finiteness(self):
        for g, m in ((0, 5), (1, 2), (2, 1)):
            p = SymbolPoset(g, m)
            assert len(p.nodes) < 200

    def test_dot_output(self):
        p = SymbolPoset(1, 1)
        dot = p.to_dot()
        assert dot.startswith("digraph")
        assert "dim 2" in dot


class TestRealizable:
    EMPTY = [(1, make_symbol(0, 1, {1: 1}, -1)),     # Q(1,-1)
             (1, make_symbol(1, 1, {1: 1}, -1)),     # with a free marked point
             (1, make_symbol(1, 0, {}, -1)),         # Q(0), not a square
             (2, make_symbol(0, 0, {4: 1}, -1)),     # Q(4)
             (2, make_symbol(0, 0, {3: 1, 1: 1}, -1)),   # Q(3,1)
             (2, make_symbol(1, 0, {4: 1}, -1)),
             (2, make_symbol(2, 0, {3: 1, 1: 1}, -1))]

    def test_masur_smillie_strata_are_empty(self):
        for g, sym in self.EMPTY:
            assert not realizable(sym, g), str(sym)

    def test_other_strata_are_realizable(self):
        assert realizable(make_symbol(0, 0, {4: 1}, 1), 2)          # H(2)
        assert realizable(make_symbol(0, 0, {2: 2}, 1), 2)          # H(1,1)
        assert realizable(make_symbol(1, 0, {}, 1), 1)              # H(0)
        assert realizable(make_symbol(0, 2, {1: 2}, -1), 1)         # Q(1,1,-1,-1)
        assert realizable(make_symbol(0, 0, {2: 1, 1: 2}, -1), 2)
        assert realizable(make_symbol(0, 1, {5: 1}, -1), 2)         # Q(5,-1)
        assert all(realizable(s, 0) for m in (4, 5, 6) for s in enumerate_symbols(0, m))

    @pytest.mark.parametrize("g,m", [(1, 1), (1, 2), (2, 0), (2, 1)])
    def test_poset_keeps_exactly_the_realizable_symbols(self, g, m):
        p = SymbolPoset(g, m)
        syms = enumerate_symbols(g, m)
        assert p.nodes == [s for s in syms if realizable(s, g)]
        assert len(p.nodes) < len(syms)
        for a in syms:
            for b in syms:
                if not (realizable(a, g) and realizable(b, g)):
                    assert not degenerates_to(a, b, g, m)
