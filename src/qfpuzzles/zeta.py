"""Zeta functions as exact truncated power series.

All counts are fixed-point counts (periodic sequences, not orbits), so
``zeta = exp(sum_n p_n z^n / n)`` throughout.  The semi-local zeta of a
graph at a finite vertex set F admits two independent routes:

* the determinant of ``Id - L(z)`` over the series ring, where ``L`` is
  the first-return matrix of F, and
* direct counting of periodic sequences meeting F (total minus
  F-avoiding).

Both are implemented and cross-checked; neither calls the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from qfpuzzles.graphs import (
    GraphTruncation,
    avoiding_path_counts,
    gamma_n,
    path_count_table,
    periodic_point_counts,
)
from qfpuzzles.polys import RationalPolynomial, _gauss_jordan, _primitive_ints, poly_gcd, rational_roots
from qfpuzzles.puzzle import Puzzle
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.series import PowerSeries, SeriesError


class TruncationWarning(UserWarning):
    """The requested order exceeds the graph's guaranteed cycle coverage."""


class NotRationalError(ValueError):
    """Rational reconstruction failed at the requested degrees."""


def _check_coverage(g: GraphTruncation, order: int, what: str) -> bool:
    if g.completeness_bound is not None and order > g.completeness_bound:
        warnings.warn(
            f"{what} to order {order} but cycles are only guaranteed up to "
            f"length {g.completeness_bound}; higher coefficients are lower bounds",
            TruncationWarning,
            stacklevel=3,
        )
        return False
    return True


def zeta_from_counts(counts: Sequence[int], order: int | None = None) -> PowerSeries:
    """``exp(sum p_n z^n / n)`` for non-negative integer point counts."""
    if any(c < 0 for c in counts):
        raise ValueError("periodic point counts must be non-negative")
    k = order if order is not None else len(counts)
    if k < 0:
        raise SeriesError(f"order must be >= 0, got {k}")
    cs = [Fraction(0)] * (k + 1)
    for n, c in enumerate(counts[:k], start=1):
        cs[n] = Fraction(c, n)
    return PowerSeries(cs).exp()


def counts_from_zeta(zeta: PowerSeries) -> list[int]:
    """Recover p_n = n * [z^n] log(zeta); exact on genuine count data."""
    lg = zeta.log()
    out = []
    for n in range(1, zeta.order + 1):
        val = n * lg[n]
        if val.denominator != 1:
            raise ValueError(f"coefficient {n} does not come from integer counts")
        out.append(int(val))
    return out


@dataclass(frozen=True)
class FirstReturnMatrix:
    """Series-valued matrix of first-return path counts between F-vertices."""

    index: tuple[str, ...]
    entries: Mapping[tuple[str, str], PowerSeries]
    order: int

    def entry(self, u: str, v: str) -> PowerSeries:
        return self.entries[(u, v)]


def first_return_matrix(g: GraphTruncation, finite_set: Iterable[str], order: int) -> FirstReturnMatrix:
    """Counts of u->v paths avoiding F strictly in between, as series."""
    F = tuple(sorted(set(finite_set)))
    if not set(F) <= set(g.vertices):
        raise ValueError("F must be a subset of the graph's vertices")
    _check_coverage(g, order, "first-return counting")
    entries = {}
    for u in F:
        counts = avoiding_path_counts(g, u, F, order)
        for v in F:
            entries[(u, v)] = PowerSeries.from_counts(counts[v], order=order)
    return FirstReturnMatrix(F, entries, order)


def _series_det(matrix: list[list[PowerSeries]], order: int) -> PowerSeries:
    """Determinant by Gaussian elimination over the truncated series ring.

    The caller passes ``Id - L(z)`` with ``L(0) = 0``.  Elimination keeps
    the constant terms equal to the identity, so every diagonal pivot is a
    unit (``reciprocal`` raises :class:`SeriesError` if that ever breaks).
    """
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = PowerSeries.one(order)
    for col in range(n):
        pivot = m[col][col]
        det = det * pivot
        inv = pivot.reciprocal()
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def semi_local_zeta_det(g: GraphTruncation, finite_set: Iterable[str], order: int) -> PowerSeries:
    """Semi-local zeta at F via ``1 / det(Id - L(z))``."""
    L = first_return_matrix(g, finite_set, order)
    F = L.index
    if not F:
        return PowerSeries.one(order)
    matrix = []
    for u in F:
        row = []
        for v in F:
            entry = -L.entry(u, v)
            if u == v:
                entry = entry + 1
            row.append(entry)
        matrix.append(row)
    return _series_det(matrix, order).reciprocal()


def semi_local_zeta_brute(g: GraphTruncation, finite_set: Iterable[str], order: int) -> PowerSeries:
    """Semi-local zeta at F by direct periodic-sequence counting.

    Counts n-periodic sequences whose orbit meets F as (all) minus
    (F-avoiding), then exponentiates.  Independent of the determinant
    route.
    """
    F = sorted(set(finite_set))
    if not set(F) <= set(g.vertices):
        raise ValueError("F must be a subset of the graph's vertices")
    _check_coverage(g, order, "periodic point counting")
    if not F:
        return PowerSeries.one(order)
    total = periodic_point_counts(g, order)
    rest = periodic_point_counts(g.without(F), order)
    meeting = [t - r for t, r in zip(total, rest)]
    return zeta_from_counts(meeting, order=order)


def loop_graph_zeta(first_returns: PowerSeries) -> PowerSeries:
    """Local zeta of a loop graph: ``1 / (1 - f(z))``.

    ``f`` must have zero constant term and non-negative integer
    coefficients (it counts first-return loops by length).
    """
    if first_returns.coeffs[0] != 0:
        raise SeriesError("first-return series must have zero constant term")
    for c in first_returns.coeffs:
        if c.denominator != 1 or c < 0:
            raise SeriesError("first-return coefficients must be non-negative integers")
    return (1 - first_returns).reciprocal()


# -- rational reconstruction ---------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """Primitive integer-coefficient numerator/denominator, coprime as

    polynomials, denominator positive at zero (and equal to one there for
    every zeta-type series, whose determinants carry unit constant term).
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def series(self, order: int) -> PowerSeries:
        num = PowerSeries(list(self.numerator), order=order)
        den = PowerSeries(list(self.denominator), order=order)
        return num * den.reciprocal()

    def __str__(self) -> str:
        return f"({_poly_str(self.numerator)}) / ({_poly_str(self.denominator)})"


def _poly_str(coeffs: Sequence[int]) -> str:
    parts = []
    for n, c in enumerate(coeffs):
        if c == 0:
            continue
        if n == 0:
            parts.append(str(c))
        elif n == 1:
            parts.append(f"{c}z" if c != 1 else "z")
        else:
            parts.append(f"{c}z^{n}" if c != 1 else f"z^{n}")
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PoleReport:
    rational: RationalFunction
    poles: tuple[Fraction, ...]  # rational poles, multiplicity by repetition
    irreducible_factors: tuple[tuple[int, ...], ...]  # leftover denominator factors
    residual_checked_to: int


def pade_pole_analysis(series: PowerSeries, num_deg: int, den_deg: int) -> PoleReport:
    """Reconstruct a rational function from a series and locate its poles.

    Solves the linear system for a denominator with constant term one,
    then demands that every remaining coefficient of the input matches
    the reconstruction exactly; otherwise the series is declared not
    rational at these degrees.  Rational poles are found exactly; any
    leftover denominator part is reported as an irreducible factor.
    """
    if num_deg < 0 or den_deg < 0:
        raise ValueError("degrees must be non-negative")
    if num_deg + den_deg > series.order:
        raise NotRationalError("series too short for the requested degrees")
    # Unknowns q_1..q_d with q_0 = 1:  sum_j q_j c_{k-j} = 0 for the
    # window num_deg < k <= num_deg + den_deg; the last column is -c_k.
    d = den_deg
    m = [
        [series[k - j] if k - j >= 0 else Fraction(0) for j in range(1, d + 1)] + [-series[k]]
        for k in range(num_deg + 1, num_deg + den_deg + 1)
    ]
    pivots, _ = _gauss_jordan(m, d)
    # a row past the rank reads 0 = rhs
    if any(row[-1] != 0 for row in m[len(pivots):]):
        raise NotRationalError("denominator system is not solvable at these degrees")
    q = [Fraction(0)] * d
    for row, c in zip(m, pivots):
        q[c] = row[-1]
    den = [Fraction(1), *q]
    den_series = PowerSeries(den, order=series.order)
    prod = series * den_series
    num = [prod[k] for k in range(min(num_deg, series.order) + 1)]
    for k in range(num_deg + 1, series.order + 1):
        if prod[k] != 0:
            raise NotRationalError(
                f"not rational at degrees ({num_deg},{den_deg}): residual at z^{k}"
            )
    num_poly = RationalPolynomial(num)
    den_poly = RationalPolynomial(den)
    if not num_poly.is_zero():
        shared = poly_gcd(num_poly, den_poly)
        if shared.degree >= 1:
            num_poly, rem_n = num_poly.divmod(shared)
            den_poly, rem_d = den_poly.divmod(shared)
            assert rem_n.is_zero() and rem_d.is_zero()
            scale = 1 / den_poly.coeffs[0]
            num_poly = num_poly * scale
            den_poly = den_poly * scale
    # one common positive scale makes both primitive; the function is unchanged
    ints = _primitive_ints(num_poly.coeffs + den_poly.coeffs)
    split = len(num_poly.coeffs)
    rat = RationalFunction(tuple(ints[:split]), tuple(ints[split:]))
    poles, leftovers = _poles_of(list(den_poly.coeffs))
    return PoleReport(rat, tuple(poles), tuple(leftovers), series.order)


def _poles_of(den: list[Fraction]) -> tuple[list[Fraction], list[tuple[int, ...]]]:
    poly = RationalPolynomial(den)
    poles: list[Fraction] = []
    while poly.degree > 0:
        roots = rational_roots(poly)
        if not roots:
            break
        root = roots[0]
        poles.append(root)
        poly, rem = poly.divmod(RationalPolynomial([-root, 1]))
        assert rem.is_zero()
    leftovers = []
    if poly.degree > 0:
        # a factor is only defined up to scale; report it primitive
        ints = _primitive_ints(poly.coeffs)
        if ints[0] < 0:
            ints = [-c for c in ints]
        leftovers.append(tuple(ints))
    return sorted(poles), leftovers


# -- puzzle-level zeta ----------------------------------------------------------


@dataclass(frozen=True)
class PeriodicClass:
    """One n-periodic sequence of the level-N graph with its lift record."""

    word: tuple[str, ...]
    certified: bool
    tag: str  # liftable-with-low-return | liftable-high | unliftable-at-depth


@dataclass(frozen=True)
class PuzzleZetaResult:
    level: int
    cert_depth: int
    order: int
    counts_total: tuple[int, ...]
    counts_certified: tuple[int, ...]
    counts_uncertified: tuple[int, ...]
    classes: tuple[PeriodicClass, ...]
    zeta: PowerSeries  # zeta of the certified counts


def puzzle_zeta_n(
    p: Puzzle,
    level: int,
    order: int,
    cert_depth: int,
    analyzer: ReducibilityAnalyzer | None = None,
) -> PuzzleZetaResult:
    """Periodic points of the level-N transition graph, certified by lifting.

    For each n <= order, enumerates the n-periodic vertex sequences of
    the level-``level`` transition graph, then tries to lift each one
    through levels ``level+1 .. cert_depth`` by choosing, position by
    position, pieces whose i-parent matches the current lift and whose
    f-image matches its successor (the edge's fibre in
    :meth:`Puzzle.fibres`).  A sequence is certified when a consistent
    periodic lift chain reaches ``cert_depth``.

    Certified sequences are tagged by the reduction chains of the first
    lift found, with candidates tried level by level in
    ``itertools.product`` order over piece ids: if every chain ends at
    order <= level the class echoes a low first-return loop, otherwise a
    high one.  Enumeration is exponential in ``order``; this is a
    desk-scale instrument.
    """
    if not level < cert_depth <= p.depth:
        raise ValueError("need level < cert_depth <= depth")
    an = analyzer or ReducibilityAnalyzer(p)
    graph = gamma_n(p, level)
    id_of = {p.label(v): v for v in p.level(level)}
    # lifts[L][(u, v)]: the order-(L+1) pieces lifting the level-L edge u -> v
    lifts = {L: p.fibres(L + 1) for L in range(level, cert_depth)}
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def certify(beta: tuple[int, ...], at_level: int) -> tuple[int, ...] | None:
        """Return a lift of beta at cert_depth, or None.  Failures are

        memoized; they recur across periodic words sharing a stretch.
        """
        if at_level == cert_depth:
            return beta
        if (at_level, beta) in failed:
            return None
        fibre = lifts[at_level]
        nxt = beta[1:] + beta[:1]
        for candidate in product(*(fibre.get(edge, ()) for edge in zip(beta, nxt))):
            lifted = certify(candidate, at_level + 1)
            if lifted is not None:
                return lifted
        failed.add((at_level, beta))
        return None

    @cache
    def high(piece: int) -> bool:
        chain = an.reduction_chain(piece)
        return chain.kind == "unknown" or (
            chain.kind == "irreducible" and p.order(chain.terminal) > level
        )

    totals, certs, classes = [], [], []
    for n in range(1, order + 1):
        words = _periodic_words(graph, n)
        cert_count = 0
        for word in words:
            top = certify(tuple(id_of[w] for w in word), level)
            tag = "unliftable-at-depth"
            if top is not None:
                cert_count += 1
                tag = "liftable-high" if any(high(v) for v in top) else "liftable-with-low-return"
            classes.append(PeriodicClass(word, top is not None, tag))
        totals.append(len(words))
        certs.append(cert_count)
    uncert = [t - c for t, c in zip(totals, certs)]
    return PuzzleZetaResult(
        level,
        cert_depth,
        order,
        tuple(totals),
        tuple(certs),
        tuple(uncert),
        tuple(classes),
        zeta_from_counts(certs, order=order),
    )


def _periodic_words(g: GraphTruncation, n: int) -> list[tuple[str, ...]]:
    """All n-periodic vertex sequences (x_0 .. x_{n-1}) along plain edges."""
    outs = g.adjacency
    out: list[tuple[str, ...]] = []

    def extend(word: list[str]):
        if len(word) == n:
            for e in outs[word[-1]]:
                if e.dst == word[0]:
                    out.append(tuple(word))
            return
        for e in outs[word[-1]]:
            word.append(e.dst)
            extend(word)
            word.pop()

    for v in sorted(g.vertices):
        extend([v])
    return out


def periodic_empirical_measure(g: GraphTruncation, n: int) -> dict[str, Fraction]:
    """Vertex-cylinder frequencies of the n-periodic sequences.

    For each named vertex, the exact fraction of n-periodic sequences
    whose coordinate 0 sits there.  Requires a plain finite graph (no
    bundles), where coordinate-0 positions are exactly the named spots.
    """
    if not g.is_plain:
        raise ValueError("empirical measures need a plain (unit-edge) graph")
    if n < 1:
        raise ValueError("the period must be >= 1")
    # on a plain graph, n-periodic sequences at v are the closed n-walks at v
    loops = path_count_table(g, n)[n]
    total = sum(loops[v][v] for v in g.vertices)
    if total == 0:
        raise ValueError(f"no {n}-periodic sequences")
    return {v: Fraction(loops[v][v], total) for v in g.vertices}
