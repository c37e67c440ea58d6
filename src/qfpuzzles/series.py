"""Truncated formal power series with exact rational coefficients.

A :class:`PowerSeries` stores coefficients ``c_0 .. c_K`` as
:class:`fractions.Fraction` values.  ``K`` is the truncation order; it is a
property of the value, never changed silently.  Binary operations between
series of different orders truncate to the smaller order.  A ``float``
coefficient or scalar raises ``TypeError``: its binary expansion is not
the value meant.

The preconditions follow the classical ones for the series ring:
``reciprocal`` needs ``c_0 != 0``, ``log`` needs ``c_0 == 1`` and ``exp``
needs ``c_0 == 0``.  Violations raise :class:`SeriesError`.

The product, reciprocal, ``exp`` and ``log`` have one implementation
each, a private kernel on coefficient lists of ``int`` or ``Fraction``
values (``_reciprocal``, ``_exp_counts``, ``_log_counts`` below; the
product ``_mul`` lives in :mod:`qfpuzzles.polys`, which polynomials share).
:class:`PowerSeries` hands integral coefficients to it as ``int``, so
series over the integers, which is what the zeta layer mostly handles,
are computed in ``int``; the zeta layer calls the kernel on ``int``
lists directly and converts to :class:`PowerSeries` at its boundary.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from qfpuzzles.polys import _fraction, _mul, _terms

Coeff = Union[int, Fraction]

DEFAULT_ORDER = 16


class SeriesError(ValueError):
    """Raised on precondition violations of series operations."""


class PowerSeries:
    """Formal power series truncated at order ``K`` over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff], order: int | None = None):
        cs = [_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise SeriesError("truncation order must be >= 0")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise SeriesError("a series needs at least the constant coefficient")
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        return cls([0], order=order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        return cls([1], order=order)

    @classmethod
    def z(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        return cls([0, 1], order=order)

    @classmethod
    def from_counts(cls, counts: Sequence[Coeff], order: int | None = None) -> "PowerSeries":
        """Series ``sum_{n>=1} counts[n-1] z^n`` (zero constant term)."""
        return cls([0, *counts], order=order if order is not None else len(counts))

    # -- basics --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        k = min(self.order, other.order)
        return self.coeffs[: k + 1] == other.coeffs[: k + 1]

    def __hash__(self):
        # ``==`` sees only the common prefix, so equal series of different
        # orders share no more than the constant term.
        return hash(self.coeffs[0])

    def __repr__(self) -> str:
        terms = _terms(self.coeffs, "z")
        body = " + ".join(terms[:8] + ["..."] * (len(terms) >= 8)) or "0"
        return f"PowerSeries({body}; K={self.order})"

    def truncate(self, order: int) -> "PowerSeries":
        if not 0 <= order <= self.order:
            raise SeriesError(f"cannot truncate order {self.order} to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- ring operations ------------------------------------------------

    def _common(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            cs = list(self.coeffs)
            cs[0] += _fraction(other)
            return PowerSeries(cs)
        k = self._common(other)
        return PowerSeries([self.coeffs[n] + other.coeffs[n] for n in range(k + 1)])

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def __sub__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return self + (-_fraction(other))
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "PowerSeries":
        return (-self) + _fraction(other)

    def __mul__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            c = _fraction(other)
            return PowerSeries([c * x for x in self.coeffs])
        k = self._common(other)
        return PowerSeries(_mul(_lift(self.coeffs[: k + 1]), _lift(other.coeffs[: k + 1])))

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        return PowerSeries(_reciprocal(_lift(self.coeffs)))

    def __truediv__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return self * (1 / _fraction(other))
        return self * other.reciprocal()

    def derivative(self) -> "PowerSeries":
        """Formal derivative, truncated at order K-1 (the top coefficient

        of the derivative is not determined by a K-truncation).
        """
        k = self.order
        if k == 0:
            return PowerSeries.zero(0)
        return PowerSeries([Fraction(n) * self.coeffs[n] for n in range(1, k + 1)])

    def exp(self) -> "PowerSeries":
        """``exp`` of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise SeriesError("exp requires a zero constant term")
        return PowerSeries(_exp_counts(_lift([n * c for n, c in enumerate(self.coeffs)][1:])))

    def log(self) -> "PowerSeries":
        """``log`` of a series with constant term one."""
        counts = _log_counts(_lift(self.coeffs))
        return PowerSeries([0, *(Fraction(c, n) for n, c in enumerate(counts, start=1))])

    def pow(self, m: int) -> "PowerSeries":
        if m < 0:
            return self.reciprocal().pow(-m)
        acc = PowerSeries.one(self.order)
        base = self
        while m:
            if m & 1:
                acc = acc * base
            base = base * base
            m >>= 1
        return acc


# -- kernel ------------------------------------------------------------------
# Series truncated at order K as lists ``[c_0, ..., c_K]``; operands of
# one call have the same length.  ``int`` lists stay ``int`` wherever the
# result is integral.


def _lift(cs: Sequence[Coeff]) -> Sequence[Coeff]:
    """``cs`` as ``int`` numerators when every coefficient is integral."""
    if all(c.denominator == 1 for c in cs):
        return [c.numerator for c in cs]
    return cs


def _reciprocal(a: Sequence[Coeff]) -> list[Coeff]:
    """Multiplicative inverse; ``int`` in, ``int`` out when ``a_0`` is +1 or -1."""
    c0 = a[0]
    if c0 == 0:
        raise SeriesError("reciprocal requires a nonzero constant term")
    inv = c0 if c0 == 1 or c0 == -1 else 1 / Fraction(c0)
    out = [inv]
    rest = a[1:]
    for n in range(1, len(a)):
        # sum_{j<=n} a_j out_{n-j} = 0
        out.append(-inv * sum(map(mul, rest[:n], reversed(out))))
    return out


def _exp_counts(p: Sequence[Coeff]) -> list[Coeff]:
    """``exp(sum_n p_n z^n / n)`` to order ``len(p)`` from ``p_1, p_2, ...``.

    Newton's identity ``n a_n = sum_{k<=n} p_k a_{n-k}``.  Each ``a_n``
    is an ``int`` while ``n`` divides the sum, and a ``Fraction`` from the
    first ``n`` that does not (the counts are then not those of a map).
    """
    out = [1]
    for n in range(1, len(p) + 1):
        s = sum(map(mul, p[:n], reversed(out)))
        q, r = divmod(s, n)
        out.append(Fraction(s, n) if r else q)
    return out


def _log_counts(a: Sequence[Coeff]) -> list[Coeff]:
    """Point counts ``p_1 .. p_K`` of a zeta series with ``a_0 == 1``:

    ``p_n = n a_n - sum_{k<n} p_k a_{n-k}``, the inverse of
    :func:`_exp_counts`.
    """
    if a[0] != 1:
        raise SeriesError("log requires constant term 1")
    p: list[Coeff] = []
    for n in range(1, len(a)):
        p.append(n * a[n] - sum(map(mul, p, reversed(a[1:n]))))
    return p
