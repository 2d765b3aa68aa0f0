"""Exact scalar and linear-algebra kernel.

Two scalar backends run through the whole library:

* exact mode -- real numbers are :class:`fractions.Fraction`, complex numbers
  are :class:`QC` (a pair of Fractions).  All combinatorial, homological and
  wedge-algebra computations are bit-exact in this mode.
* float mode -- plain ``float`` / ``complex``.  Used for the transcendental
  operations (geodesic flow, arctanh distances, finite differences).

The linear algebra below has one Gauss-Jordan loop, :func:`_rref_integer`,
behind :func:`rref`, with deterministic pivoting (first usable row, columns
left to right), so repeated runs produce identical bases.  :func:`rank`,
:func:`nullspace`, :func:`solve` and :func:`mat_inverse` read their answers
off ``rref`` of the matrix or of the matrix augmented with the right-hand
sides, and so does the cochain solve of ``homology.HomologyData``.  Their
entries are int, Fraction or QC; a ``float`` or ``complex`` entry raises
TypeError.  What they return lies in the field of the input: QC throughout
when some entry is a QC, Fraction otherwise.

A matrix of ``int`` and ``Fraction`` entries is eliminated fraction-free
(Bareiss, Math. Comp. 1968): each row is scaled by the lcm of its
denominators, rows are combined as ``p*row_i - f*row_r`` in Python ints and
divided by the gcd of their entries, and each pivot row is divided by its
pivot once, at the end.  Every integer row stays a nonzero multiple of the
row the field elimination holds at the same step, so both find the same
pivots, and the RREF is unique: the result equals the field elimination's,
as Fractions.  This matters because Fraction arithmetic pays a gcd on every
operation.

A matrix with a :class:`QC` entry runs through the same loop in real block
form: each entry a+bi becomes the 2x2 block [[a, -b], [b, a]], with the real
and imaginary columns interleaved.  A row operation over Q(i) acts on the
block rows as a real row operation, so the block form of the Q(i) RREF is
row-equivalent to the block matrix; and it is itself in RREF, since each
pivot 1 becomes a 2x2 identity and the rest of its two columns is zero.
By uniqueness it is the RREF of the block matrix, so the Q(i) result is
read back from its blocks: entry (r, j) is a + bi with a at block position
(2r, 2j) and b at (2r+1, 2j), and the pivots are the even block pivots
halved.  Sizes in this
package stay well under 100x100; we deliberately avoid pulling in a CAS for
this.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm


class QC:
    """Complex number with exact rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so keep it; Fraction(x) would copy it
        # through the slow generic path of Fraction.__new__
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a real operand needs two products, not the four of QC(x, 0)
            return QC(self.re * other, self.im * other)
        other = _coerce(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero QC")
            return QC(self.re / other, self.im / other)
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- structure --------------------------------------------------------
    def conjugate(self):
        return QC(self.re, -self.im)

    def abs2(self):
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (QC, int, Fraction)):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QC({self.re!s}, {self.im!s})"

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _coerce(x):
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to QC")


QC_ZERO = QC(0, 0)
QC_ONE = QC(1, 0)
QC_I = QC(0, 1)


# ---------------------------------------------------------------------------
# generic field helpers: these work for Fraction and QC alike
# ---------------------------------------------------------------------------

def is_zero(x):
    if isinstance(x, QC):
        return x.is_zero()
    return x == 0


def conj(x):
    if isinstance(x, QC):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


# ---------------------------------------------------------------------------
# exact matrices: lists of lists over Fraction or QC
# ---------------------------------------------------------------------------

def rref(matrix):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where pivots is the list of pivot column indices.
    The input is not modified.  Entries are int, Fraction or QC; anything
    else raises TypeError.  A matrix of ints and Fractions comes back with
    Fraction entries, a matrix with a QC entry with QC entries throughout
    (see the module docstring).
    """
    if not _has_qc(matrix):
        return _rref_integer(matrix)
    # real block form: a+bi -> [[a, -b], [b, a]], re/im columns interleaved
    block = []
    for row in matrix:
        z = [_coerce(x) for x in row]
        block.append([t for x in z for t in (x.re, -x.im)])
        block.append([t for x in z for t in (x.im, x.re)])
    Rb, bpivots = _rref_integer(block)
    cols = len(matrix[0])
    R = [[QC(re[2 * j], im[2 * j]) for j in range(cols)]
         for re, im in zip(Rb[::2], Rb[1::2])]
    return R, [pc // 2 for pc in bpivots if pc % 2 == 0]


def _has_qc(matrix):
    """Whether some entry is a :class:`QC`; TypeError on an inexact entry."""
    found = False
    for row in matrix:
        for x in row:
            if isinstance(x, (int, Fraction)):
                continue
            if not isinstance(x, QC):
                raise TypeError(f"{type(x).__name__} entry in an exact matrix")
            found = True
    return found


def _units(matrix):
    """(zero, one) of the field of ``matrix``: QC if some entry is a QC,
    else Fraction."""
    return (QC_ZERO, QC_ONE) if _has_qc(matrix) else (Fraction(0), Fraction(1))


def integer_vector(vec):
    """(numerators, d) with ``vec == numerators / d``, d the lcm of the
    denominators of the int or Fraction entries."""
    d = reduce(lcm, (x.denominator for x in vec), 1)
    return [x.numerator * (d // x.denominator) for x in vec], d


def gaussian_numerators(values):
    """Exact complex values (QC, Fraction or int) as (pairs, den): pair k is
    the Gaussian integer (re, im) with values[k] = (re + i*im)/den, and den
    is the lcm of the denominators of every real and imaginary part.  The
    Fractions are in lowest terms, so the gcd of den and all numerators is
    1.  TypeError on a float or complex value."""
    zs = [v if type(v) is QC else _coerce(v) for v in values]
    den = reduce(lcm, (x.denominator for z in zs for x in (z.re, z.im)), 1)
    return [(z.re.numerator * (den // z.re.denominator),
             z.im.numerator * (den // z.im.denominator)) for z in zs], den


def _rref_integer(matrix):
    """:func:`rref` of an int and Fraction matrix, fraction-free.  The gcd
    and lcm fold through ``reduce``: ``gcd(*row)`` builds an argument tuple
    per row, which raised the peak memory of a homology build by ~1 MB."""
    m = []
    for row in matrix:
        row = integer_vector(row)[0]
        g = reduce(gcd, row, 0)
        m.append([x // g for x in row] if g > 1 else row)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = reduce(gcd, row, 0)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero = Fraction(0)
    out = [[zero if not x else Fraction(x, row[pc]) for x in row]
           for row, pc in zip(m, pivots)]
    out += [[zero] * cols for _ in range(rows - r)]
    return out, pivots


def rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, one vector per free column (ascending),
    with entries in the field of ``matrix`` (see :func:`_units`)."""
    zero, one = _units(matrix)
    if not matrix:
        if not ncols:
            return []
        return [[one if j == k else zero for j in range(ncols)]
                for k in range(ncols)]
    cols = len(matrix[0])
    r, pivots = rref(matrix)
    pivset = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivset:
            continue
        v = [zero] * cols
        v[free] = one
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][free]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One solution of ``matrix @ x = rhs`` or ``None`` if inconsistent.

    ``rhs`` may live over a bigger field than the matrix (e.g. QC right-hand
    side over a Fraction matrix).  Free variables are set to zero, so the
    solution is deterministic.
    """
    cols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    r, pivots = rref(aug)
    if pivots and pivots[-1] == cols:
        return None
    x = [_units(aug)[0]] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def mat_inverse(matrix):
    """Exact inverse; ``None`` if singular."""
    n = len(matrix)
    if n == 0:
        return []
    # the identity block lives in the same field as the matrix
    zero, one = _units(matrix)
    r, pivots = rref([list(row) + [one if i == j else zero for j in range(n)]
                      for i, row in enumerate(matrix)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]
