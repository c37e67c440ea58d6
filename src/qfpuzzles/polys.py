"""Dense univariate polynomials over exact rationals.

Supports the handful of exact operations the toolkit needs: arithmetic,
evaluation, euclidean division, gcd, the Sylvester matrix and its
determinant (the resultant), and rational root finding for the pole
analysis of rational functions.  ``_mul`` is the one product kernel, for
series; polynomials and orbit polynomials pad it (``_product``).  A
``float`` coefficient or argument raises ``TypeError``: its binary
expansion is not the value meant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from operator import mul
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]


def _fraction(v, error: type[Exception] = TypeError) -> Fraction:
    """``v`` as a ``Fraction``.  Floats are refused with ``error``: their binary
    expansion would enter exact data as a power-of-two denominator."""
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise error(f"float {v!r} is not exact; pass an int, Fraction or 'p/q' string")
    return Fraction(v)


class RationalPolynomial:
    """Polynomial ``c_0 + c_1 x + ... + c_d x^d`` with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff]):
        cs = [_fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls([0])

    @classmethod
    def x(cls) -> "RationalPolynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the convention ``degree(0) == -1``."""
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return " + ".join(_terms(self.coeffs, "x")) or "0"

    def __add__(self, other: "RationalPolynomial | Coeff") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial([other])
        return RationalPolynomial([x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPolynomial | Coeff") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial([other])
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "RationalPolynomial":
        return (-self) + other

    def __mul__(self, other: "RationalPolynomial | Coeff") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            c = _fraction(other)
            return RationalPolynomial([c * x for x in self.coeffs])
        return RationalPolynomial(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, value: Coeff) -> Fraction:
        v = _fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def divmod(self, other: "RationalPolynomial") -> tuple["RationalPolynomial", "RationalPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(1, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            quot[shift] = factor
            for i in range(d + 1):
                rem[shift + i] -= factor * other.coeffs[i]
            rem.pop()
            if not rem:
                rem = [Fraction(0)]
        return RationalPolynomial(quot), RationalPolynomial(rem)

    def monic(self) -> "RationalPolynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return RationalPolynomial([c / lead for c in self.coeffs])


def _mul(a: Sequence[Coeff], b: Sequence[Coeff]) -> list[Coeff]:
    """Product of two series of one length, truncated to that length."""
    rb = b[::-1]
    k = len(a) - 1
    return [sum(map(mul, a, rb[k - n:])) for n in range(k + 1)]


def _product(a: Sequence[Coeff], b: Sequence[Coeff]) -> list[Coeff]:
    """Untruncated product: :func:`_mul` of both lists padded to length ``len(a) + len(b) - 1``."""
    n = len(a) + len(b) - 1
    return _mul([*a, *[0] * (n - len(a))], [*b, *[0] * (n - len(b))])


def _terms(coeffs: Sequence[Coeff], var: str) -> list[str]:
    """The nonzero terms ``c``, ``c*var``, ``c*var^n`` of a coefficient list, lowest first."""
    return [str(c) if n == 0 else f"{c}*{var}" + (f"^{n}" if n > 1 else "") for n, c in enumerate(coeffs) if c]


def poly_gcd(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd via the euclidean algorithm."""
    a, b = p, q
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def sylvester_matrix(p: RationalPolynomial, q: RationalPolynomial) -> list[list[Fraction]]:
    """The (deg p + deg q)-square Sylvester matrix of two nonzero polynomials."""
    if p.is_zero() or q.is_zero():
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    size, zero = p.degree + q.degree, Fraction(0)
    return [
        [zero] * shift + list(reversed(a.coeffs)) + [zero] * (size - shift - len(a.coeffs))
        for a, shifts in ((p, q.degree), (q, p.degree))
        for shift in range(shifts)
    ]


def _gauss_jordan(m: list[list[Fraction]], cols: int) -> tuple[list[int], Fraction]:
    """Reduce the rows of ``m`` in place to reduced row echelon form on

    their first ``cols`` columns; later columns (a right-hand side) ride
    along.  Returns the pivot columns, in row order, and the signed product
    of the pivots, which is the determinant of a square full-rank ``m``.
    """
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        k = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        # the pivot row is zero left of c; zeros are skipped, not multiplied
        m[r] = pivot_row = [x * inv if x else x for x in m[r]]
        for j, row in enumerate(m):
            f = row[c]
            if j != r and f != 0:
                m[j] = row[:c] + [x - f * y if y else x for x, y in zip(row[c:], pivot_row[c:])]
        pivots.append(c)
    return pivots, det


def det_fraction(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gauss-Jordan elimination with rational pivots."""
    pivots, det = _gauss_jordan([row[:] for row in matrix], len(matrix))
    return det if len(pivots) == len(matrix) else Fraction(0)


def sylvester_resultant(p: RationalPolynomial, q: RationalPolynomial) -> Fraction:
    """Resultant of two nonzero polynomials, exact.

    Vanishes exactly when the polynomials share a root (equivalently when
    their gcd is nonconstant); degenerate constant inputs resolve through
    the usual conventions ``Res(c, q) = c^{deg q}``.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if p.degree == 0:
        return p.coeffs[0] ** q.degree
    if q.degree == 0:
        return q.coeffs[0] ** p.degree
    return det_fraction(sylvester_matrix(p, q))


def rational_roots(p: RationalPolynomial) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, each listed once.

    Scales to primitive integer coefficients and runs the classical p/q
    divisor search; exact, with multiplicity discarded.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    ints = _primitive_ints(p.coeffs)
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots: list[Fraction] = []
    if len(ints) < len(p.coeffs):
        roots.append(Fraction(0))
    if not ints or len(ints) == 1:
        return roots
    a0, ad = abs(ints[0]), abs(ints[-1])
    for num in _divisors(a0):
        for den in _divisors(ad):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and p(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _common(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of ``values`` over their least common denominator, and that denominator."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def _primitive_ints(coeffs: Sequence[Fraction]) -> list[int]:
    """Integers proportional to ``coeffs`` by a positive rational, with gcd one

    (all zeros stay zeros).
    """
    ints, _ = _common(coeffs)
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
