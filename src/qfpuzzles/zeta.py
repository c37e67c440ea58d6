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
from numbers import Rational
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from qfpuzzles.graphs import (
    GraphTruncation,
    _check_gamma_level,
    _excursion_counts,
    avoiding_path_counts,
    periodic_point_counts,
)
from qfpuzzles.polys import RationalPolynomial, _gauss_jordan, _primitive_ints, poly_gcd, rational_roots
from qfpuzzles.puzzle import Puzzle
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.series import (
    PowerSeries,
    SeriesError,
    _exp_counts,
    _lift,
    _log_counts,
    _mul,
    _reciprocal,
)


class TruncationWarning(UserWarning):
    """The requested order exceeds the graph's guaranteed cycle coverage."""


class NotRationalError(ValueError):
    """Rational reconstruction failed at the requested degrees."""


def zeta_from_counts(counts: Sequence[int], order: int | None = None) -> PowerSeries:
    """``exp(sum p_n z^n / n)`` for non-negative integer point counts.

    Counts of a map give an integral series, computed in ``int``; other
    counts (from a file, or lower bounds) continue in ``Fraction`` from
    the first coefficient that is not integral.
    """
    if not all(isinstance(c, Rational) for c in counts):
        raise TypeError("periodic point counts must be int or Fraction values")
    if any(c < 0 for c in counts):
        raise ValueError("periodic point counts must be non-negative")
    k = order if order is not None else len(counts)
    if k < 0:
        raise SeriesError(f"order must be >= 0, got {k}")
    p = list(counts[:k])
    return PowerSeries(_exp_counts(p + [0] * (k - len(p))))


def counts_from_zeta(zeta: PowerSeries) -> list[int]:
    """Recover p_n = n * [z^n] log(zeta); exact on genuine count data."""
    counts = _log_counts(_lift(zeta.coeffs))
    for n, c in enumerate(counts, start=1):
        if c.denominator != 1:
            raise ValueError(f"coefficient {n} does not come from integer counts")
    return [int(c) for c in counts]


@dataclass(frozen=True)
class FirstReturnMatrix:
    """Series-valued matrix of first-return path counts between F-vertices."""

    index: tuple[str, ...]
    entries: Mapping[tuple[str, str], PowerSeries]
    order: int

    def entry(self, u: str, v: str) -> PowerSeries:
        return self.entries[(u, v)]


def _checked_subset(g: GraphTruncation, finite_set: Iterable[str], order: int, what: str) -> tuple[str, ...]:
    """F sorted, after the checks both semi-local routes share; warns when
    counts to ``order`` are not exact."""
    F = tuple(sorted(set(finite_set)))
    if not set(F) <= set(g.vertices):
        raise ValueError("F must be a subset of the graph's vertices")
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    if not g.exact_up_to(order):
        warnings.warn(
            f"{what} to order {order} but cycles are only guaranteed up to "
            f"length {g.completeness_bound}; higher coefficients are lower bounds",
            TruncationWarning,
            stacklevel=2,
        )
    return F


def first_return_matrix(g: GraphTruncation, finite_set: Iterable[str], order: int) -> FirstReturnMatrix:
    """Counts of u->v paths avoiding F strictly in between, as series."""
    F = _checked_subset(g, finite_set, order, "first-return counting")
    counts = _first_returns(g, F, order)
    entries = {(u, v): PowerSeries.from_counts(counts[u][v], order=order) for u in F for v in F}
    return FirstReturnMatrix(F, entries, order)


def _first_returns(g: GraphTruncation, F: tuple[str, ...], order: int) -> dict[str, dict[str, list[int]]]:
    """``counts[u][v]`` for u, v in F, read from one excursion pass.  A single
    member reads the pass through ``avoiding_path_counts``: the benchmark's
    tracer test follows that call through ``zeta``."""
    if len(F) == 1:
        return {F[0]: avoiding_path_counts(g, F[0], F, order)}
    counts = _excursion_counts(g, F, F, order)
    return {u: {v: counts(u, v) for v in F} for u in F}


def _series_det(matrix: list[list[list[int]]]) -> list[int]:
    """Determinant by Gaussian elimination over ``Z[[z]]`` truncated.

    The caller passes ``Id - L(z)`` with ``L(0) = 0``.  Elimination keeps
    the constant terms equal to the identity, so every diagonal pivot is a
    unit (a pivot whose constant term is not +1 or -1 raises
    :class:`SeriesError`, so every step stays in ``int``).  Rows are
    updated right of the pivot column only; the entries below the pivot
    are never read again.
    """
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = [1] + [0] * (len(m[0][0]) - 1)
    for col in range(n):
        pivot_row = m[col]
        pivot = pivot_row[col]
        if pivot[0] != 1 and pivot[0] != -1:
            raise SeriesError(f"integer reciprocal requires constant term +1 or -1, got {pivot[0]}")
        det = _mul(det, pivot)
        inv = _reciprocal(pivot)
        for r in range(col + 1, n):
            row = m[r]
            if not any(row[col]):
                continue
            factor = _mul(row[col], inv)
            for c in range(col + 1, n):
                if any(pivot_row[c]):
                    row[c] = [x - y for x, y in zip(row[c], _mul(factor, pivot_row[c]))]
    return det


def semi_local_zeta_det(g: GraphTruncation, finite_set: Iterable[str], order: int) -> PowerSeries:
    """Semi-local zeta at F via ``1 / det(Id - L(z))``."""
    F = _checked_subset(g, finite_set, order, "first-return counting")
    if not F:
        return PowerSeries.one(order)
    counts = _first_returns(g, F, order)
    matrix = [[[int(u == v), *(-c for c in counts[u][v])] for v in F] for u in F]
    return PowerSeries(_reciprocal(_series_det(matrix)))


def semi_local_zeta_brute(g: GraphTruncation, finite_set: Iterable[str], order: int) -> PowerSeries:
    """Semi-local zeta at F by direct periodic-sequence counting.

    Counts n-periodic sequences whose orbit meets F as (all) minus
    (F-avoiding), then exponentiates.  Independent of the determinant
    route.
    """
    F = _checked_subset(g, finite_set, order, "periodic point counting")
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
    return PowerSeries(_reciprocal([1, *(-c.numerator for c in first_returns.coeffs[1:])]))


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


@dataclass(frozen=True)
class PoleReport:
    rational: RationalFunction
    poles: tuple[Fraction, ...]  # rational poles, multiplicity by repetition
    # the whole rootless rest of the denominator as one primitive integer factor, or
    # none; it is not factored further, so it need not be irreducible
    irreducible_factors: tuple[tuple[int, ...], ...]
    residual_checked_to: int


def pade_pole_analysis(series: PowerSeries, num_deg: int, den_deg: int) -> PoleReport:
    """Reconstruct a rational function from a series and locate its poles.

    Solves the linear system for a denominator with constant term one,
    then demands that every remaining coefficient of the input matches
    the reconstruction exactly; otherwise the series is declared not
    rational at these degrees.  Rational poles are found exactly.  The
    rest of the denominator, which has no rational root, is reported
    whole in ``irreducible_factors`` as one primitive integer factor; it
    is not factored further, so it need not be irreducible.
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
    for root in rational_roots(poly):  # sorted, so the poles come out sorted
        while poly(root) == 0:
            poly, _ = poly.divmod(RationalPolynomial([-root, 1]))
            poles.append(root)
    leftovers = []
    if poly.degree > 0:
        # a factor is only defined up to scale; report it primitive
        ints = _primitive_ints(poly.coeffs)
        if ints[0] < 0:
            ints = [-c for c in ints]
        leftovers.append(tuple(ints))
    return poles, leftovers


# -- puzzle-level zeta ----------------------------------------------------------


# Window and word statuses in puzzle_zeta_n: a word's status is the max over its windows.
_LOW, _HIGH, _AMBIG, _DEAD = range(4)
_TAGS = ("liftable-with-low-return", "liftable-high", None, "unliftable-at-depth")
# A block's forced lift is a piece id, or one of these: several pieces, or an empty fibre.
_SEVERAL, _NONE = -1, -2


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill: Callable[[int], int]):
        self.fill = fill

    def __missing__(self, key: int) -> int:
        value = self[key] = self.fill(key)
        return value


class PeriodicClass(NamedTuple):
    """One n-periodic sequence of the level-N graph with its lift record."""

    word: tuple[str, ...]
    certified: bool
    tag: str  # liftable-{with-low-return,high,unknown-beyond-depth} | unliftable-at-depth


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

    The n-periodic vertex sequences of the level-``level`` graph are listed
    for every ``n <= order``, each period in label order.  A sequence is
    certified when it lifts to a periodic chain at ``cert_depth``: level by
    level, position ``j`` takes a piece in the fibre (:meth:`Puzzle.fibres`)
    of the edge from lift ``j`` to ``j + 1``.  As ``f`` and ``i`` commute,
    that lift at level ``level + t`` depends only on letters ``j .. j + t``
    read cyclically: a sliding block code.  The forced lift of a block of
    ``t + 1`` letters is the fibre piece over the lifts of its first and
    last ``t`` letters: DEAD when one of those is DEAD or the fibre is empty
    (no lift), else AMBIG when one of those is AMBIG or the fibre has
    several pieces.  With ``m = cert_depth - level`` each window of
    ``m + 1`` letters maps once to the status of its top lift.  Sequences
    with an AMBIG window and no DEAD one go to the product search, trying
    candidates level by level in ``itertools.product`` order over piece ids.

    The listing walks digits: the level's vertices numbered ``0 .. V - 1``
    in label order.  For each start vertex it extends all paths one letter
    at a time, in label order, to the successors from which the start is
    still reachable within ``order`` letters.  A path carries its digits as
    one integer in base ``V``: its last ``m + 1`` digits key the window
    statuses, and a word of period ``n >= m`` reads its wrapping windows
    from one more table, keyed by its last ``m`` digits times ``V**m`` plus
    its first ``m``.  Only a word shorter than ``m``, whose ring repeats,
    is unrolled.

    A certified class is tagged by the reduction chains of its first lift:
    low when all end at order <= level, else high; unknown at ``cert_depth
    == p.depth``, where no level lies below the lift.  Enumeration is
    exponential in ``order``; this is a desk-scale instrument.
    """
    if not level < cert_depth <= p.depth:
        raise ValueError("need level < cert_depth <= depth")
    an = analyzer or ReducibilityAnalyzer(p)
    _check_gamma_level(p, level)
    # lifts[t][(u, v)]: the order-(level+t+1) pieces lifting the level-(level+t) edge u -> v
    lifts = [p.fibres(L + 1) for L in range(level, cert_depth)]
    # the level graph gamma_n(p, level) on digits: digit d is verts[d], in label order
    verts = sorted(p.level(level), key=p.label)
    letters, V = [(p.label(v),) for v in verts], len(verts)  # one-letter words
    digit = {v: d for d, v in enumerate(verts)}
    succ: list[list[int]] = [[] for _ in verts]
    preds: list[set[int]] = [set() for _ in verts]
    for a, b in sorted((digit[u], digit[v]) for u, v in lifts[0]):
        succ[a].append(b)
        preds[b].add(a)
    # steps[t][edge]: the one piece over a level-(level+t) edge, or _SEVERAL
    steps = [{e: ps[0] if len(ps) == 1 else _SEVERAL for e, ps in f.items()} for f in lifts]
    m, beyond = cert_depth - level, cert_depth == p.depth
    mod, span = V**m, V ** (m + 1)  # a key's last m and m + 1 digits are key % mod and key % span
    tags = ("liftable-unknown-beyond-depth",) * 2 + _TAGS[2:] if beyond else _TAGS

    @cache
    def high(piece: int) -> bool:
        chain = an.reduction_chain(piece)
        return chain.kind == "unknown" or (
            chain.kind == "irreducible" and p.order(chain.terminal) > level
        )

    def top_status(top: Sequence[int]) -> int:
        return _LOW if beyond or not any(map(high, top)) else _HIGH

    # tops[t][code]: the forced lift of the (t+1)-block with digits code
    tops = [dict(enumerate(verts)), *({} for _ in steps)]

    def status(key: int) -> int:  # the (m+1)-block map: the status of the window with digits key
        top = _block_lift(tops, steps, V, m, key)
        return _DEAD if top == _NONE else _AMBIG if top == _SEVERAL else top_status((top,))

    # wraps[last * mod + first]: the max status of the m windows that wrap a
    # word whose last m digits are ``last`` and first m digits ``first``
    windows = _Table(status)
    wraps = _Table(lambda key: max(windows[key // V**k % span] for k in range(m)))
    classes: list[list[PeriodicClass]] = [[] for _ in range(order)]
    certs, new_class, pows = [0] * order, PeriodicClass._make, [V**k for k in range(order + 1)]
    for start in range(V if order > 0 else 0):
        to_start = _walk_lengths_to(preds, start, order)
        closes = preds[start]
        # the paths of n letters from start, in label order: words, digit keys, max status of their windows
        words, keys, stats = [letters[start]], [start], [_LOW]
        for n in range(1, order + 1):
            left = order - n  # letters a path may still add and close; its end v has to_start[v] <= left + 1
            nexts = {v: [w for w in succ[v] if to_start.get(w, order) <= left]
                     for v, d in to_start.items() if d <= left + 1}
            grown, grown_keys, grown_stats = [], [], []
            found, windowed = classes[n - 1], n >= m
            for word, key, s in zip(words, keys, stats):
                v = key % V
                if v in closes:  # the word closes: add its wrapping windows
                    if (t := s) != _DEAD:  # a word shorter than m is unrolled from position -m to m - 1
                        t = max(t, wraps[key % mod * mod + key // pows[n - m] if windowed else sum(
                            key // pows[n - 1 - j % n] % V * V ** (m - 1 - j) for j in range(-m, m))])
                    if t == _AMBIG:
                        top = _first_lift(lifts, tuple(map(p.id_of, word)))
                        t = _DEAD if top is None else top_status(top)
                    certs[n - 1] += t != _DEAD
                    found.append(new_class((word, t != _DEAD, tags[t])))
                for w in nexts[v]:
                    k = key * V + w
                    grown.append(word + letters[w])
                    grown_keys.append(k)
                    grown_stats.append(t if windowed and s != _DEAD and (t := windows[k % span]) > s else s)
            words, keys, stats = grown, grown_keys, grown_stats
    totals = [len(c) for c in classes]
    return PuzzleZetaResult(
        level,
        cert_depth,
        order,
        tuple(totals),
        tuple(certs),
        tuple(t - c for t, c in zip(totals, certs)),
        tuple(c for period in classes for c in period),
        zeta_from_counts(certs, order=order),
    )


def _block_lift(tops: list[dict[int, int]], steps: Sequence[Mapping[tuple[int, int], int]],
                V: int, t: int, code: int) -> int:
    """The forced lift of the ``(t + 1)``-block whose digits in base ``V`` are
    ``code``, memoised in ``tops[t]``: the piece of ``steps[t - 1]`` over the
    lifts of its first and last ``t``-blocks, ``_NONE`` when either of those or
    that fibre is empty, else ``_SEVERAL`` when either is."""
    top = tops[t].get(code)
    if top is None:
        a = _block_lift(tops, steps, V, t - 1, code // V)
        b = _block_lift(tops, steps, V, t - 1, code % V**t)
        if a == _NONE or b == _NONE:
            top = _NONE
        elif a == _SEVERAL or b == _SEVERAL:
            top = _SEVERAL
        else:
            top = steps[t - 1].get((a, b), _NONE)
        tops[t][code] = top
    return top


def _first_lift(lifts: Sequence[Mapping[tuple[int, int], tuple[int, ...]]],
                beta: tuple[int, ...]) -> tuple[int, ...] | None:
    """The first lift of the ring ``beta`` through the fibres ``lifts``, level
    by level, candidates in ``itertools.product`` order; None when there is none."""
    tried = [iter((beta,))]  # the candidates left at each level, depth first
    while tried:
        beta = next(tried[-1], None)
        if beta is None:
            tried.pop()
        elif len(tried) > len(lifts):
            return beta
        else:
            fibre = lifts[len(tried) - 1]
            tried.append(product(*(fibre.get(e, ()) for e in zip(beta, beta[1:] + beta[:1]))))
    return None


def _walk_lengths_to(preds: Sequence[set[int]], target: int, bound: int) -> dict[int, int]:
    """Edges on a shortest path to ``target`` from each vertex with one
    shorter than ``bound``, by breadth-first search over the predecessor
    sets ``preds[v]``; ``target`` gets 1, as a closed walk needs an edge."""
    dist, frontier = {target: 1}, {target}
    for d in range(1, bound):
        frontier = {u for v in frontier for u in preds[v] if u not in dist}
        dist.update(dict.fromkeys(frontier, d))
    return dist


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
    counts = _excursion_counts(g, g.vertices, (), n)
    loops = {v: counts(v, v)[n - 1] for v in g.vertices}
    total = sum(loops.values())
    if total == 0:
        raise ValueError(f"no {n}-periodic sequences")
    return {v: Fraction(c, total) for v, c in loops.items()}
