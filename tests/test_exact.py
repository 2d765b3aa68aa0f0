"""Exact arithmetic kernel: QC and rational linear algebra."""

import random
from fractions import Fraction

import pytest

from qdlab.exact import (
    QC,
    QC_I,
    _coerce,
    mat_inverse,
    nullspace,
    rank,
    rref,
    solve,
)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        ai = a[i]
        for j in range(cols):
            s = ai[0] * b[0][j]
            for k in range(1, inner):
                s = s + ai[k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def test_qc_field_axioms():
    a = QC(Fraction(3, 4), Fraction(-2, 5))
    b = QC(Fraction(-1, 3), Fraction(7, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert QC_I * QC_I == QC(-1, 0)
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert (a * a.conjugate()).re == a.abs2()


def test_qc_int_fraction_interop():
    a = QC(1, 2)
    assert 2 * a == QC(2, 4)
    assert a + 1 == QC(2, 2)
    assert a / Fraction(1, 2) == QC(2, 4)


def _rand_matrix(rng, rows, cols, span=6):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
             for _ in range(cols)] for _ in range(rows)]


def test_solve_and_nullspace_random():
    rng = random.Random(1)
    for _ in range(25):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        A = _rand_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-5, 5)) for _ in range(cols)]
        b = [sum(A[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve(A, b)
        assert sol is not None
        back = [sum(A[i][j] * sol[j] for j in range(cols)) for i in range(rows)]
        assert back == b
        for v in nullspace(A, ncols=cols):
            out = [sum(A[i][j] * v[j] for j in range(cols)) for i in range(rows)]
            assert all(o == 0 for o in out)


def test_rank_nullity():
    rng = random.Random(2)
    for _ in range(20):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        A = _rand_matrix(rng, rows, cols)
        assert rank(A) + len(nullspace(A, ncols=cols)) == cols


def test_inverse():
    rng = random.Random(3)
    hits = 0
    for _ in range(20):
        n = rng.randint(1, 6)
        A = _rand_matrix(rng, n, n)
        inv = mat_inverse(A)
        if inv is None:
            assert rank(A) < n
            continue
        hits += 1
        prod = mat_mul(A, inv)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (1 if i == j else 0)
    assert hits > 10


def test_empty_nullspace_full_space():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3


def test_qc_linear_solve():
    A = [[QC(1, 0), QC(0, 1)], [QC(0, 0), QC(2, 0)]]
    b = [QC(3, 1), QC(4, 0)]
    x = solve(A, b)
    assert x is not None
    assert A[0][0] * x[0] + A[0][1] * x[1] == b[0]
    assert A[1][0] * x[0] + A[1][1] * x[1] == b[1]

    # QC right-hand side over a Fraction matrix, as in the cochain solve
    A = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(-1, 2)]]
    b = [QC(1, Fraction(1, 3)), QC(-2, 5)]
    x = solve(A, b)
    assert all(isinstance(v, QC) for v in x)
    assert [A[i][0] * x[0] + A[i][1] * x[1] for i in range(2)] == b
    assert solve(A + [[Fraction(4), Fraction(3, 2)]], b + [QC(0, 1)]) is None

    # underdetermined: free variables (columns 1 and 3) come back zero
    A = [[Fraction(1), Fraction(2), Fraction(0), Fraction(1)],
         [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)]]
    b = [QC(3, 1), QC(0, 2)]
    assert solve(A, b) == [QC(3, 1), QC(0, 0), QC(0, 2), QC(0, 0)]


def test_inconsistent_system():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(A, [Fraction(1), Fraction(3)]) is None


def test_rref_idempotent():
    rng = random.Random(4)
    A = _rand_matrix(rng, 5, 7)
    R, piv = rref(A)
    R2, piv2 = rref(R)
    assert R == R2 and piv == piv2


def test_qc_real_operand_matches_coerced_form():
    rng = random.Random(11)
    for _ in range(200):
        z = QC(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        for x in (rng.randint(-9, 9),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 6))):
            full = _coerce(x)
            for got, want in ((z * x, z * full), (x * z, full * z)):
                assert got == want
                assert type(got.re) is Fraction and type(got.im) is Fraction
            if x:
                got = z / x
                assert got == z / full
                assert type(got.re) is Fraction and type(got.im) is Fraction
            if not z.is_zero():
                assert x / z == full / z
    with pytest.raises(ZeroDivisionError):
        QC(1, 2) / 0
    with pytest.raises(ZeroDivisionError):
        QC(1, 2) / Fraction(0)
    with pytest.raises(TypeError):
        QC(1, 2) * 1.5


# -- rref against the Gauss-Jordan elimination over the field ----------------

def _rref_field(matrix):
    """Reference RREF by Gauss-Jordan over the field of the entries, which
    must be Fractions or QCs: an int pivot would divide into a float."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _field_rref(matrix):
    """The field elimination on the same matrix with Fraction entries, so it
    never divides an int by an int."""
    return _rref_field([[Fraction(x) for x in row] for row in matrix])


def _seeded_matrices():
    rng = random.Random(12)

    def ints(rows, cols, span=5):
        return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]

    def rationals(rows, cols):
        return _rand_matrix(rng, rows, cols)

    def low_rank(rows, cols):
        k = rng.randint(0, min(rows, cols) - 1)
        a, b = ints(rows, k, 3), rationals(k, cols)
        return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                 for j in range(cols)] for i in range(rows)]

    def signs(rows, cols):
        return [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(cols)]
                for _ in range(rows)]

    def zero_rows(rows, cols):
        m = rationals(rows, cols)
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            m[i] = [0] * cols
        return m

    def zero_cols(rows, cols):
        m = ints(rows, cols)
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in m:
                row[j] = Fraction(0)
        return m

    kinds = (ints, rationals, low_rank, signs, zero_rows, zero_cols)
    out = [[], [[]], [[0]], [[Fraction(0), 0, 0]], [[2, 1]], [[-3]]]
    for i in range(60):
        kind = kinds[i % len(kinds)]
        out.append(kind(rng.randint(5, 9), rng.randint(1, 3)))     # tall
        out.append(kind(rng.randint(1, 3), rng.randint(5, 9)))     # wide
        out.append(kind(1, rng.randint(1, 8)))                     # 1 x n
        n = rng.randint(1, 7)
        out.append(kind(n, n))                                     # square
        out.append(kind(rng.randint(1, 8), rng.randint(1, 8)))
    return out


def _homology_matrices(monkeypatch):
    """Every integer matrix HomologyData eliminates on the bundled surfaces:
    its rref calls and those of nullspace and mat_inverse."""
    import qdlab.exact as E
    from qdlab.builders import bundled_names, bundled_surface
    from qdlab.cover import build_cover
    from qdlab.homology import HomologyData

    seen = []
    real = E._rref_integer

    def record(matrix):
        seen.append([list(row) for row in matrix])
        return real(matrix)

    monkeypatch.setattr(E, "_rref_integer", record)
    for name in bundled_names():
        h = HomologyData(build_cover(bundled_surface(name)))
        h.cocycle_functional([QC(1)] * len(h.rel_minus_basis), space="relative")
    monkeypatch.undo()
    return seen


def test_rref_matches_field_elimination(monkeypatch):
    def check(matrix):
        before = [list(row) for row in matrix]
        R, pivots = rref(matrix)
        assert matrix == before
        assert (R, pivots) == _field_rref(matrix)
        assert all(type(x) is Fraction for row in R for x in row)

    mats = _seeded_matrices()
    assert len(mats) >= 300
    for matrix in mats:
        check(matrix)
    hom = _homology_matrices(monkeypatch)
    assert len(hom) >= 4 * 5
    for matrix in hom:
        check(matrix)


def test_rref_of_int_matrix_returns_fractions():
    # int / int would give a float; the pivot division must not
    R, pivots = rref([[2, 1]])
    assert pivots == [0]
    assert R == [[1, Fraction(1, 2)]]
    assert [type(x) for x in R[0]] == [Fraction, Fraction]
    assert rref([[4, 2], [6, 3]]) == ([[1, Fraction(1, 2)], [0, 0]], [0])
    assert all(type(x) is Fraction for row in rref([[4, 2], [6, 3]])[0] for x in row)


def test_rref_with_qc_entries_keeps_the_field_elimination():
    A = [[QC(1, 1), Fraction(2)], [QC(0, 2), 3]]
    assert rref(A) == _qc_rref(A)
    assert rref(A)[1] == [0, 1]
    # an int pivot among QC entries is divided exactly, not into a float,
    # and every entry comes back in the field of the matrix, Q(i)
    R, pivots = rref([[2, 1, QC(1, 1)]])
    assert pivots == [0] and R == [[1, Fraction(1, 2), QC(Fraction(1, 2), Fraction(1, 2))]]
    assert [type(x) for x in R[0]] == [QC, QC, QC]
    assert [type(x.re) for x in R[0]] == [Fraction, Fraction, Fraction]
    R, pivots = rref([[2, QC(1, 1)], [QC(0, 1), 3]])
    assert pivots == [0, 1] and R == [[1, 0], [0, 1]]
    assert solve([[2, 1]], [QC(1, 0)]) == [QC(Fraction(1, 2), 0), QC(0, 0)]


def test_units_follow_the_field_of_every_entry():
    # a QC entry anywhere, not only at [0][0], puts the result in Q(i)
    A = [[2, QC(1, 1)], [QC(0, 1), 3]]
    inv = mat_inverse(A)
    assert mat_mul(A, inv) == [[1, 0], [0, 1]]
    assert all(type(x) is QC for row in inv for x in row)
    basis = nullspace([[1, Fraction(1, 2), QC(0, 1)]])
    assert basis == [[Fraction(-1, 2), 1, 0], [QC(0, -1), 0, 1]]
    assert all(type(x) is QC for v in basis for x in v)
    # without a QC entry every entry is a Fraction, free variables included
    assert all(type(x) is Fraction for x in solve([[2, 0, 1]], [3]))
    assert all(type(x) is Fraction
               for v in nullspace([[1, 2, 3]]) + nullspace([], ncols=2) for x in v)
    assert all(type(x) is Fraction for row in mat_inverse([[1, 2], [3, 4]]) for x in row)


def test_inexact_entries_raise():
    for bad in ([[1.5, 2]], [[QC(1, 1), 0.5]], [[1, 2j]]):
        with pytest.raises(TypeError):
            rref(bad)
        with pytest.raises(TypeError):
            nullspace(bad)
    with pytest.raises(TypeError):
        mat_inverse([[1, 0], [0, 2.0]])
    with pytest.raises(TypeError):
        solve([[1, 0]], [0.5])


def _qc_rref(matrix):
    """The field elimination on the same matrix with QC entries."""
    return _rref_field([[_coerce(x) for x in row] for row in matrix])


def _rand_qc(rng, span=5):
    return QC(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
              Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def _seeded_qc_matrices():
    rng = random.Random(13)

    def all_qc(rows, cols):
        return [[_rand_qc(rng) for _ in range(cols)] for _ in range(rows)]

    def mixed(rows, cols):
        pick = (lambda: rng.randint(-4, 4), lambda: _rand_matrix(rng, 1, 1)[0][0],
                lambda: _rand_qc(rng), lambda: QC(rng.randint(-3, 3), 0),
                lambda: QC(0, rng.randint(-3, 3)))
        m = [[rng.choice(pick)() for _ in range(cols)] for _ in range(rows)]
        m[rng.randrange(rows)][rng.randrange(cols)] = _rand_qc(rng)
        return m

    def low_rank(rows, cols):
        k = rng.randint(1, min(rows, cols))
        a, b = all_qc(rows, k), mixed(k, cols)
        return [[sum((a[i][t] * b[t][j] for t in range(k)), QC(0, 0))
                 for j in range(cols)] for i in range(rows)]

    def zero_rows(rows, cols):
        m = mixed(rows, cols)
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            m[i] = [QC(0, 0) if j % 2 else 0 for j in range(cols)]
        if not any(isinstance(x, QC) for row in m for x in row):
            m[0][0] = QC(0, 0)
        return m

    def zero_cols(rows, cols):
        m = all_qc(rows, cols)
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in m:
                row[j] = rng.choice((0, Fraction(0), QC(0, 0)))
            m[0][j] = QC(0, 0)
        return m

    kinds = (all_qc, mixed, low_rank, zero_rows, zero_cols)
    out = [[[QC(0, 0)]], [[QC(0, 1)]], [[QC(0, 0), 0, 0]], [[2, QC(1, 1)]],
           [[QC(0, 0)], [QC(0, 0)]], [[QC(1, 1)], [QC(2, 2)]]]
    for i in range(50):
        kind = kinds[i % len(kinds)]
        out.append(kind(rng.randint(4, 7), rng.randint(1, 3)))     # tall
        out.append(kind(rng.randint(1, 3), rng.randint(4, 7)))     # wide
        out.append(kind(1, rng.randint(1, 6)))                     # 1 x n
        n = rng.randint(1, 5)
        out.append(kind(n, n))                                     # square
        out.append(kind(rng.randint(1, 6), rng.randint(1, 6)))
    return out


def _scenario_matrices(monkeypatch):
    """The constraint matrices PairingScenario.random hands to nullspace."""
    import qdlab.levi as L

    seen = []
    real = L.nullspace

    def record(matrix):
        seen.append([list(row) for row in matrix])
        return real(matrix)

    monkeypatch.setattr(L, "nullspace", record)
    rng = random.Random(23)
    for _ in range(100):
        L.PairingScenario.random(rng, n=3, fiber=True)
    for n in (2, 4):
        L.PairingScenario.random(rng, n=n, fiber=True)
    monkeypatch.undo()
    return seen


def test_rref_with_qc_matches_field_elimination(monkeypatch):
    def check(matrix):
        before = [list(row) for row in matrix]
        R, pivots = rref(matrix)
        assert matrix == before
        assert (R, pivots) == _qc_rref(matrix)
        assert all(type(x) is QC for row in R for x in row)

    mats = _seeded_qc_matrices()
    assert len(mats) >= 250
    deficient = set()
    for matrix in mats:
        check(matrix)
        deficient.add(len(rref(matrix)[1]) < min(len(matrix), len(matrix[0])))
    assert deficient == {False, True}
    scen = _scenario_matrices(monkeypatch)
    assert len(scen) >= 2 * 100
    for matrix in scen:
        check(matrix)
