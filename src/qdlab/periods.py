"""Period coordinates: the Masur-Smillie-Veech chart data of a surface.

``period_map`` evaluates the edge-vector cochain of the cover on the chosen
basis of anti-invariant relative homology; the resulting coordinate vector is
the local chart image of the surface.  ``chain_period_cochain`` exposes the
chain-level cochain itself (values on every directed cover edge).

An exact :class:`PeriodVector` keeps Gaussian-integer numerators over one
positive denominator, as an exact ``FlatSurface`` keeps its edge vectors:
``_num[k]`` is an (re, im) pair of ints and coordinate k is
(re + i*im)/``_den``, reduced so that the gcd of ``_den`` and every numerator
is 1.  Equal vectors then have equal numerators.  ``+``, ``-``, ``scale``,
``conjugate`` and ``is_zero`` run on the ints, and so do ``period_map`` on an
exact surface (against the base numerators and the integer minus cycles)
and ``homology.wedge`` (against the integer rows of the comparison map and
of J^{-1}).  ``coords`` is the given tuple for a vector constructed from
coordinates, and for a derived vector the QC tuple built on first read.  A
vector with a float or complex coordinate keeps only its coordinates and
runs every operation on them.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .cover import DoubleCover
from .errors import BasisMismatch
from .exact import QC, conj, gaussian_numerators, is_zero
from .homology import HomologyData


class PeriodVector:
    """Complex coordinates on a homology basis, bound to it by ``basis_tag``.

    Immutable.  Exact vectors run on Gaussian-integer numerators over one
    denominator (see the module docstring); ``==``, ``hash`` and ``repr``
    are those of the coordinate tuple with the tag, space and mode.
    """

    __slots__ = ("basis_tag", "space", "mode", "_coords", "_num", "_den")

    def __init__(self, coords, basis_tag, space="relative", mode="exact"):
        if space not in ("relative", "absolute"):
            raise BasisMismatch(f"unknown space {space!r}")
        try:
            num, den = gaussian_numerators(coords)
        except TypeError:   # a float or complex coordinate
            num = den = None
        self._set(coords, None if num is None else tuple(num), den,
                  basis_tag, space, mode)

    def _set(self, coords, num, den, basis_tag, space, mode):
        setter = object.__setattr__
        setter(self, "_coords", coords)
        setter(self, "_num", num)
        setter(self, "_den", den)
        setter(self, "basis_tag", basis_tag)
        setter(self, "space", space)
        setter(self, "mode", mode)

    def _derived(self, num, den):
        """A vector on this one's basis with numerators ``num`` (a list)
        over ``den``."""
        return _from_numerators(num, den, self.basis_tag, self.space, self.mode)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PeriodVector, (self.coords, self.basis_tag, self.space, self.mode)

    @property
    def coords(self):
        """The coordinates: QC in exact mode, complex in float mode."""
        if self._coords is None:
            d = self._den
            object.__setattr__(self, "_coords", tuple(
                [QC(Fraction(x, d), Fraction(y, d)) for x, y in self._num]))
        return self._coords

    def _length(self):
        return len(self._num if self._num is not None else self._coords)

    def _key(self):
        return self.coords, self.basis_tag, self.space, self.mode

    def __eq__(self, other):
        if other.__class__ is not PeriodVector:
            return NotImplemented
        if self._num is not None and other._num is not None:
            return (self._num, self._den, self.basis_tag, self.space, self.mode) \
                == (other._num, other._den, other.basis_tag, other.space, other.mode)
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"PeriodVector(coords={self.coords!r}, basis_tag={self.basis_tag!r}, "
                f"space={self.space!r}, mode={self.mode!r})")

    def _check_mate(self, other):
        if not isinstance(other, PeriodVector):
            raise BasisMismatch("expected a PeriodVector")
        if other.basis_tag != self.basis_tag or other.space != self.space:
            raise BasisMismatch("period vectors bound to different bases")
        if other._length() != self._length():
            raise BasisMismatch("period vectors of different length")

    def _combined(self, other, sign):
        """self + sign * other on the numerators."""
        den = lcm(self._den, other._den)
        p, q = den // self._den, sign * (den // other._den)
        return self._derived([(a * p + c * q, b * p + d * q) for (a, b), (c, d)
                              in zip(self._num, other._num)], den)

    def __add__(self, other):
        self._check_mate(other)
        if self._num is not None and other._num is not None:
            return self._combined(other, 1)
        return PeriodVector(tuple(a + b for a, b in zip(self.coords, other.coords)),
                            self.basis_tag, self.space, self.mode)

    def __sub__(self, other):
        self._check_mate(other)
        if self._num is not None and other._num is not None:
            return self._combined(other, -1)
        return PeriodVector(tuple(a - b for a, b in zip(self.coords, other.coords)),
                            self.basis_tag, self.space, self.mode)

    def scale(self, factor):
        """factor * self; an int, Fraction or QC factor of an exact vector
        multiplies the numerators by (p + i*q)/r."""
        if self._num is not None:
            if type(factor) is QC:
                re, im = factor.re, factor.im
                r = lcm(re.denominator, im.denominator)
                p = re.numerator * (r // re.denominator)
                q = im.numerator * (r // im.denominator)
                if q:
                    return self._derived([(a * p - b * q, a * q + b * p)
                                          for a, b in self._num], self._den * r)
                factor = Fraction(p, r)
            if isinstance(factor, (int, Fraction)):
                p = factor.numerator
                return self._derived([(a * p, b * p) for a, b in self._num],
                                     self._den * factor.denominator)
        return PeriodVector(tuple(factor * a for a in self.coords),
                            self.basis_tag, self.space, self.mode)

    def __neg__(self):
        return self.scale(-1)

    def conjugate(self):
        if self._num is not None:
            return self._derived([(a, -b) for a, b in self._num], self._den)
        return PeriodVector(tuple(conj(a) for a in self.coords),
                            self.basis_tag, self.space, self.mode)

    def is_zero(self):
        if self._num is not None:
            return not any(a or b for a, b in self._num)
        return all(is_zero(a) for a in self.coords)

    def zero_like(self):
        z = QC(0, 0) if self.mode == "exact" else 0j
        return PeriodVector(tuple(z for _ in range(self._length())),
                            self.basis_tag, self.space, self.mode)

    def to_float(self):
        return PeriodVector(tuple(complex(a) for a in self.coords),
                            self.basis_tag, self.space, "float")


def _from_numerators(num, den, basis_tag, space, mode):
    """The exact vector with numerators ``num`` (a list of (re, im) pairs)
    over ``den``, brought to lowest terms; its QC coordinates are built on
    first read.

    The gcd folds through ``reduce`` and the tuple is built from a list:
    ``gcd(*generator)`` and ``tuple(generator)`` allocate a tuple of a
    guessed size and shrink it, and the shrunk tuples pile up in CPython's
    tuple free lists.  In a 30 s ``pairing_queries`` run that raised the peak
    memory by about 0.3 MB."""
    g = reduce(gcd, (x for z in num for x in z), den)
    if g > 1:
        num = [(a // g, b // g) for a, b in num]
        den //= g
    v = PeriodVector.__new__(PeriodVector)
    v._set(None, tuple(num), den, basis_tag, space, mode)
    return v


def period_map(c: DoubleCover, h: HomologyData) -> PeriodVector:
    """Periods of the cover's abelian differential on the relative minus basis.

    The period of the twisted cycle sum c_r r~ is 2 sum c_r vec(r) (see
    ``homology``), so it is read from the base.  On an exact base each
    period is the sum of the base numerators against an integer minus
    cycle, and no QC table is built."""
    base = c.base
    if h._combinatorics != (base.triangles, base.glue, base.sign):
        raise BasisMismatch("homology data built from different combinatorics")
    if base.mode == "exact":
        num = base._num
        den = reduce(lcm, (d for _, d in h._rel_minus), 1)
        out = []
        for z, d in h._rel_minus:
            re = im = 0
            for r, k in zip(h.reps, z):
                if k:
                    x, y = num[r]
                    re += k * x
                    im += k * y
            m = 2 * (den // d)
            out.append((re * m, im * m))
        return _from_numerators(out, den * base._den, h.basis_tag,
                                "relative", "exact")
    coords = []
    for cyc in h.rel_minus_basis:
        total = None
        for r, coef in zip(h.reps, cyc):
            if is_zero(coef):
                continue
            term = base.vec[r] * (2 * coef)
            total = term if total is None else total + term
        coords.append(0j if total is None else total)
    return PeriodVector(tuple(coords), h.basis_tag, "relative", base.mode)


def chain_period_cochain(c: DoubleCover):
    """The edge-vector cochain on all directed cover edges."""
    return {f: c.cover_surface.vec[f] for f in c.cover_surface.edges()}
