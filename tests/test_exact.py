"""Exact arithmetic kernel: QC and rational linear algebra."""

import random
from fractions import Fraction

from qdlab.exact import (
    QC,
    QC_I,
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
