"""Differential oracles for the series kernel of ``qfpuzzles.series``.

The semi-local determinant, ``zeta_from_counts`` and ``counts_from_zeta``
run on the kernel's ``int`` lists; each is checked here against a
reference routine of its own: the naive product, the ``Fraction``
elimination, Newton's identity and the ``Fraction`` logarithm.
"""

import random
import warnings
from fractions import Fraction

import pytest

from qfpuzzles.graphs import periodic_point_counts, sft_graph
from qfpuzzles.series import PowerSeries, SeriesError, _mul, _reciprocal
from qfpuzzles.zeta import (
    TruncationWarning,
    _series_det,
    counts_from_zeta,
    first_return_matrix,
    semi_local_zeta_brute,
    semi_local_zeta_det,
    zeta_from_counts,
)

from test_graphs import random_bundle_graph
from test_series import naive_mul


def reference_series_det(matrix: list[list[PowerSeries]], order: int) -> PowerSeries:
    """Determinant by Gaussian elimination over ``Fraction`` series with the

    naive product (the determinant of the semi-local zeta before the
    integer kernel)."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = PowerSeries.one(order)
    for col in range(n):
        pivot = m[col][col]
        det = PowerSeries(naive_mul(det.coeffs, pivot.coeffs))
        inv = pivot.reciprocal()
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            factor = PowerSeries(naive_mul(m[r][col].coeffs, inv.coeffs))
            for c in range(col, n):
                m[r][c] = m[r][c] - PowerSeries(naive_mul(factor.coeffs, m[col][c].coeffs))
    return det


def reference_semi_local_zeta_det(g, finite_set, order: int) -> PowerSeries:
    L = first_return_matrix(g, finite_set, order)
    matrix = [
        [(1 if u == v else 0) - L.entry(u, v) for v in L.index]
        for u in L.index
    ]
    return reference_series_det(matrix, order).reciprocal()


def reference_log(coeffs) -> list[Fraction]:
    """``log`` of a series with constant term one from ``l' = s'/s``:

    ``n l_n = n s_n - sum_{j=1..n-1} j l_j s_{n-j}``, in ``Fraction``."""
    if coeffs[0] != 1:
        raise SeriesError("log requires constant term 1")
    out = [Fraction(0)] * len(coeffs)
    for n in range(1, len(coeffs)):
        acc = Fraction(n) * coeffs[n]
        for j in range(1, n):
            acc -= j * out[j] * coeffs[n - j]
        out[n] = acc / n
    return out


def reference_counts_from_zeta(zeta: PowerSeries) -> list[int]:
    """``counts_from_zeta`` by the ``Fraction`` logarithm alone."""
    lg = reference_log(zeta.coeffs)
    out = []
    for n in range(1, zeta.order + 1):
        val = n * lg[n]
        if val.denominator != 1:
            raise ValueError(f"coefficient {n} does not come from integer counts")
        out.append(int(val))
    return out


def random_int_series(rng, order: int, c0: int) -> list[int]:
    return [c0] + [rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)])
                   for _ in range(order)]


def test_det_kernel_matches_fraction_elimination():
    """Bundle graphs (lengths 1..3, multiplicities 1..2) and 0/1 graphs;

    F empty, every vertex, and random subsets; orders 0, 1 and 24.
    """
    rng = random.Random(41)
    graphs = []
    for _ in range(12):
        graphs.append(random_bundle_graph(rng, ["a", "b", "c", "d"][: rng.randint(1, 4)]))
        d = rng.randint(1, 5)
        graphs.append(sft_graph([[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]))
    bundles = [e for g in graphs for e in g.edges]
    assert any(e.length > 1 for e in bundles) and any(e.multiplicity > 1 for e in bundles)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for g in graphs:
            subsets = [[], list(g.vertices), rng.sample(g.vertices, rng.randint(1, len(g.vertices)))]
            for F in subsets:
                for order in (0, 1, 24):
                    det = semi_local_zeta_det(g, F, order)
                    assert det.coeffs == reference_semi_local_zeta_det(g, F, order).coeffs
                    assert det.coeffs == semi_local_zeta_brute(g, F, order).coeffs


def assert_newton_identity(zeta: PowerSeries, counts) -> None:
    """``zeta = exp(s)`` with ``s = sum p_n z^n / n``, checked through its

    defining identity ``zeta' = s' zeta`` with the naive product."""
    K = zeta.order
    s_prime = [*counts[:K], *[0] * (K - len(counts))]
    assert zeta[0] == 1
    assert list(zeta.derivative().coeffs)[:K] == naive_mul(s_prime, zeta.coeffs)


def test_int_mul_and_unit_reciprocal_match_naive_product():
    rng = random.Random(43)
    for order in (0, 1, 2, 7, 24):
        for c0 in (1, -1):
            a = random_int_series(rng, order, c0)
            b = random_int_series(rng, order, rng.randint(-3, 3))
            prod = _mul(a, b)
            assert prod == naive_mul(a, b)
            inv = _reciprocal(a)
            assert naive_mul(a, inv) == [1] + [0] * order
            assert all(type(c) is int for c in prod + inv)


@pytest.mark.parametrize("c0", [0, 2, -2, 5])
def test_int_unit_reciprocal_rejects_non_units(c0):
    """A pivot of the integer elimination must be a unit of ``Z[[z]]``."""
    with pytest.raises(SeriesError, match="constant term"):
        _series_det([[[c0, 1, 1]]])


def test_zeta_from_counts_matches_fraction_exp_on_genuine_counts():
    rng = random.Random(47)
    for _ in range(20):
        d = rng.randint(1, 5)
        g = sft_graph([[rng.randint(0, 1) for _ in range(d)] for _ in range(d)])
        K = rng.choice([0, 1, 12, 24])
        counts = periodic_point_counts(g, K)
        zeta = zeta_from_counts(counts, order=K)
        assert zeta.order == K
        assert all(c.denominator == 1 for c in zeta.coeffs)
        assert_newton_identity(zeta, counts)


def test_zeta_from_counts_falls_back_to_fractions_on_inexact_division():
    assert zeta_from_counts([1, 2]).coeffs == (1, 1, Fraction(3, 2))
    rng = random.Random(53)
    for K in (2, 3, 8, 24):
        g = sft_graph([[1, 1], [1, rng.randint(0, 1)]])
        counts = periodic_point_counts(g, K)
        genuine = zeta_from_counts(counts)
        counts[-1] += 1  # K * a_K = (genuine sum) + 1: inexact first at n = K
        zeta = zeta_from_counts(counts)
        assert_newton_identity(zeta, counts)
        assert zeta.truncate(K - 1) == genuine.truncate(K - 1)
        assert zeta[K] == genuine[K] + Fraction(1, K)
        assert zeta[K].denominator != 1


@pytest.mark.parametrize("counts", [[1.5, 2], [1, 2.0], [2.0], [1.0, 3.0]])
def test_zeta_from_counts_rejects_float_counts(counts):
    with pytest.raises(TypeError):
        zeta_from_counts(counts)


@pytest.mark.parametrize("counts", [[1, 2.0], [1, 2, 2.5], [1, "2"], [1, None], [-1, 2.0], [1.5, -2]])
@pytest.mark.parametrize("order", [None, 0, 1])
def test_zeta_from_counts_checks_every_count_type_first(counts, order):
    # Counts beyond the order, and counts that also fail the sign check,
    # raise the same TypeError as a float below the order.
    with pytest.raises(TypeError, match="int or Fraction"):
        zeta_from_counts(counts, order=order)


def test_counts_from_zeta_matches_fraction_log():
    rng = random.Random(59)
    for order in (0, 1, 5, 24):
        for _ in range(5):
            series = PowerSeries(random_int_series(rng, order, 1))
            assert counts_from_zeta(series) == reference_counts_from_zeta(series)
    half = zeta_from_counts([1, 2])  # not integral, yet its counts are
    assert counts_from_zeta(half) == reference_counts_from_zeta(half) == [1, 2]


@pytest.mark.parametrize("coeffs", [
    [1, Fraction(1, 2), 3],
    [1, 1, Fraction(1, 3)],
    [2, 1, 1],
    [-1, 1, 1],
    [0, 1],
    [Fraction(1, 2), 1],
])
def test_counts_from_zeta_errors_match_fraction_log(coeffs):
    series = PowerSeries(coeffs)
    with pytest.raises(ValueError) as expected:
        reference_counts_from_zeta(series)
    with pytest.raises(ValueError) as got:
        counts_from_zeta(series)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
