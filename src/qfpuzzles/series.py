"""Truncated formal power series with exact rational coefficients.

A :class:`PowerSeries` stores coefficients ``c_0 .. c_K`` as
:class:`fractions.Fraction` values.  ``K`` is the truncation order; it is a
property of the value, never changed silently.  Binary operations between
series of different orders truncate to the smaller order.

The preconditions follow the classical ones for the series ring:
``reciprocal`` needs ``c_0 != 0``, ``log`` needs ``c_0 == 1`` and ``exp``
needs ``c_0 == 0``.  Violations raise :class:`SeriesError`.

Series over the integers, which is what the zeta layer mostly handles,
also have a private kernel on plain ``int`` lists ``[c_0, ..., c_K]``
(``_int_*`` below); callers convert to :class:`PowerSeries` at their
boundary.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]

DEFAULT_ORDER = 16


class SeriesError(ValueError):
    """Raised on precondition violations of series operations."""


class PowerSeries:
    """Formal power series truncated at order ``K`` over exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
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
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{n}")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"PowerSeries({body}; K={self.order})"

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise SeriesError(f"cannot extend truncation {self.order} to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- ring operations ------------------------------------------------

    def _common(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            cs = list(self.coeffs)
            cs[0] += Fraction(other)
            return PowerSeries(cs)
        k = self._common(other)
        return PowerSeries([self.coeffs[n] + other.coeffs[n] for n in range(k + 1)])

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def __sub__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return self + (-Fraction(other))
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "PowerSeries":
        return (-self) + Fraction(other)

    def __mul__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            c = Fraction(other)
            return PowerSeries([c * x for x in self.coeffs])
        k = self._common(other)
        out = [Fraction(0)] * (k + 1)
        for n in range(k + 1):
            a = self.coeffs[n]
            if a == 0:
                continue
            for m in range(k + 1 - n):
                b = other.coeffs[m]
                if b != 0:
                    out[n + m] += a * b
        return PowerSeries(out)

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise SeriesError("reciprocal requires a nonzero constant term")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        out[0] = 1 / c0
        for n in range(1, k + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                acc += self.coeffs[j] * out[n - j]
            out[n] = -acc / c0
        return PowerSeries(out)

    def __truediv__(self, other: "PowerSeries | Coeff") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return self * (Fraction(1) / Fraction(other))
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
        k = self.order
        out = [Fraction(0)] * (k + 1)
        out[0] = Fraction(1)
        # e' = s' e  =>  n e_n = sum_{j=1..n} j s_j e_{n-j}
        for n in range(1, k + 1):
            acc = Fraction(0)
            for j in range(1, n + 1):
                acc += j * self.coeffs[j] * out[n - j]
            out[n] = acc / n
        return PowerSeries(out)

    def log(self) -> "PowerSeries":
        """``log`` of a series with constant term one."""
        if self.coeffs[0] != 1:
            raise SeriesError("log requires constant term 1")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        # l' = s'/s  =>  n s_0 l_n = n s_n - sum_{j=1..n-1} j l_j s_{n-j}
        for n in range(1, k + 1):
            acc = Fraction(n) * self.coeffs[n]
            for j in range(1, n):
                acc -= j * out[j] * self.coeffs[n - j]
            out[n] = acc / n
        return PowerSeries(out)

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


def geometric(ratio: Coeff, order: int = DEFAULT_ORDER) -> PowerSeries:
    """The expansion of ``1 / (1 - ratio*z)`` to the given order."""
    r = Fraction(ratio)
    return PowerSeries([r**n for n in range(order + 1)])


# -- integer kernel ----------------------------------------------------------
# Series over Z truncated at order K, as ``int`` lists of length K + 1.
# Operands of one call have the same length.


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Truncated product."""
    rb = b[::-1]
    k = len(a) - 1
    return [sum(map(mul, a, rb[k - n:])) for n in range(k + 1)]


def _int_unit_reciprocal(a: list[int]) -> list[int]:
    """Inverse of a unit of ``Z[[z]]``: the constant term must be +1 or -1."""
    c0 = a[0]
    if c0 != 1 and c0 != -1:
        raise SeriesError(f"integer reciprocal requires constant term +1 or -1, got {c0}")
    out = [c0]
    rest = a[1:]
    for n in range(1, len(a)):
        # c0 * sum_{j<=n} a_j out_{n-j} = 0 and 1/c0 == c0
        out.append(-c0 * sum(map(mul, rest[:n], reversed(out))))
    return out


def _int_exp_counts(counts: Sequence[int], order: int) -> list[int] | None:
    """``exp(sum_n p_n z^n / n)`` from point counts ``p_1, p_2, ...``.

    Newton's identity ``n a_n = sum_{k<=n} p_k a_{n-k}``; returns ``None``
    at the first division by ``n`` that leaves a remainder (the counts
    are then not those of a map, and the series is not integral).
    """
    p = list(counts[:order]) + [0] * (order - len(counts))
    out = [1]
    for n in range(1, order + 1):
        q, r = divmod(sum(map(mul, p[:n], reversed(out))), n)
        if r:
            return None
        out.append(q)
    return out


def _int_log_counts(a: list[int]) -> list[int]:
    """Point counts ``p_1 .. p_K`` of a zeta series with ``a_0 == 1``:

    ``p_n = n a_n - sum_{k<n} p_k a_{n-k}``, the inverse of
    :func:`_int_exp_counts`.
    """
    if a[0] != 1:
        raise SeriesError("log requires constant term 1")
    p: list[int] = []
    for n in range(1, len(a)):
        p.append(n * a[n] - sum(map(mul, p, reversed(a[1:n]))))
    return p
