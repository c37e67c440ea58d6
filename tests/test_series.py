import random
from fractions import Fraction

import pytest

from qfpuzzles.series import PowerSeries, SeriesError


def geometric(ratio, order):
    """The expansion of ``1 / (1 - ratio*z)`` to the given order, term by term."""
    r = Fraction(ratio)
    return PowerSeries([r**n for n in range(order + 1)])


def naive_mul(a, b):
    """Truncated product of two coefficient sequences by the double loop."""
    k = min(len(a), len(b)) - 1
    out = [0] * (k + 1)
    for n in range(k + 1):
        if a[n] == 0:
            continue
        for m in range(k + 1 - n):
            out[n + m] += a[n] * b[m]
    return out


def random_series(rng, order, c0):
    """Integral and fractional coefficients, many of them zero."""
    return PowerSeries([c0] + [
        rng.choice([0, 0, rng.randint(-9, 9), Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    rng.randint(-10**6, 10**6)])
        for _ in range(order)
    ])


def test_reciprocal_geometric():
    one_minus_z = 1 - PowerSeries.z(10)
    assert one_minus_z.reciprocal() == PowerSeries([1] * 11)


def test_exp_log_inverse_pair():
    one_plus_z = 1 + PowerSeries.z(12)
    assert one_plus_z.log().exp() == one_plus_z


def test_exp_of_count_series_is_geometric():
    # exp(sum 3^n z^n / n) against the geometric series, both sides
    # expanded independently.
    K = 12
    logside = PowerSeries([0] + [Fraction(3**n, n) for n in range(1, K + 1)])
    assert logside.exp() == geometric(3, K)


def test_mixed_order_truncates_to_min():
    a = PowerSeries([1, 1, 1], order=8)
    b = PowerSeries([1, 2], order=4)
    assert (a + b).order == 4
    assert (a * b).order == 4
    assert a.order == 8  # inputs untouched


def test_preconditions_raise():
    with pytest.raises(SeriesError):
        PowerSeries.zero(4).reciprocal()
    with pytest.raises(SeriesError):
        (2 + PowerSeries.z(4)).log()
    with pytest.raises(SeriesError):
        (1 + PowerSeries.z(4)).exp()


def test_arithmetic_known_values():
    z = PowerSeries.z(6)
    s = (1 + z) * (1 - z)
    assert list(s)[:3] == [1, 0, -1]
    assert (z.pow(3))[3] == 1
    assert (z.pow(3))[2] == 0
    d = (1 + z + z * z).derivative()
    assert d[0] == 1 and d[1] == 2


def test_pow_negative_uses_reciprocal():
    s = (1 - 2 * PowerSeries.z(8)).pow(-1)
    assert s == geometric(2, 8)


def test_log_exp_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)]
        s = PowerSeries(coeffs)
        assert s.exp().log() == s


def test_equality_compares_common_prefix():
    assert PowerSeries([1, 2, 3], order=6) == PowerSeries([1, 2, 3], order=2)
    assert PowerSeries([1, 2, 4], order=2) != PowerSeries([1, 2, 3], order=2)


def test_hash_agrees_with_prefix_equality():
    short = PowerSeries([1, 1], order=1)
    long = PowerSeries([1, 1, 5], order=2)
    assert short == long
    assert hash(short) == hash(long)
    assert len({short, long}) == 1


def test_truncate_only_shrinks():
    s = PowerSeries([1, 2, 3], order=5)
    assert s.truncate(2).order == 2
    with pytest.raises(SeriesError):
        s.truncate(9)


@pytest.mark.parametrize("order", [-1, -2, -5])
def test_truncate_refuses_negative_orders(order):
    # a negative slice end would silently drop the top coefficients
    with pytest.raises(SeriesError, match=f"to {order}"):
        PowerSeries([1, 2, 3, 4]).truncate(order)


def test_product_matches_naive_double_loop():
    rng = random.Random(11)
    for order in (0, 1, 2, 7, 24):
        for _ in range(5):
            a = random_series(rng, order, rng.randint(-3, 3))
            b = random_series(rng, rng.randint(0, order), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            assert list((a * b).coeffs) == naive_mul(a.coeffs, b.coeffs)


def test_reciprocal_times_series_is_one():
    rng = random.Random(13)
    for order in (0, 1, 2, 7, 24):
        for c0 in (1, -1, 2, -3, Fraction(2, 3)):
            a = random_series(rng, order, c0)
            inv = a.reciprocal()
            assert naive_mul(a.coeffs, inv.coeffs) == [1] + [0] * order
            assert a * inv == PowerSeries.one(order)


def test_reciprocal_of_non_unit_integer_series_has_fraction_coefficients():
    inv = (2 - PowerSeries.z(8)).reciprocal()
    assert inv.coeffs == tuple(Fraction(1, 2 ** (n + 1)) for n in range(9))


def test_exp_and_log_satisfy_their_differential_equations():
    # exp(s)' = s' exp(s) and a' = a log(a)', by the naive product; the
    # log(exp(s)) == s round trip is test_log_exp_roundtrip_random
    rng = random.Random(17)
    for order in (1, 2, 7, 16):
        for _ in range(5):
            s = random_series(rng, order, 0)
            e = s.exp()
            assert e[0] == 1
            assert list(e.derivative().coeffs) == naive_mul(s.derivative().coeffs, e.coeffs)
            a = random_series(rng, order, 1)
            lg = a.log()
            assert lg[0] == 0
            assert list(a.derivative().coeffs) == naive_mul(a.coeffs, lg.derivative().coeffs)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: PowerSeries([1, 0.1]),
        lambda s: PowerSeries([0.5], order=3),
        lambda s: PowerSeries.from_counts([1.5]),
        lambda s: PowerSeries.from_counts([1, 2.0], order=1),
        lambda s: s + 0.5,
        lambda s: 0.5 + s,
        lambda s: s - 0.5,
        lambda s: 0.5 - s,
        lambda s: s * 0.5,
        lambda s: 0.5 * s,
        lambda s: s / 0.5,
    ],
    ids=["init", "init-order", "from-counts", "from-counts-order", "add", "radd", "sub", "rsub",
         "mul", "rmul", "truediv"],
)
def test_floats_are_refused(call):
    with pytest.raises(TypeError, match="float"):
        call(PowerSeries([1, 2, 3]))


def test_exact_scalars_still_accepted():
    s = PowerSeries([1, 2, 3])
    assert (s + Fraction(1, 2)).coeffs == (Fraction(3, 2), 2, 3)
    assert (s - 1).coeffs == (0, 2, 3)
    assert (1 - s).coeffs == (0, -2, -3)
    assert (s * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
    assert (s / 2) == s * Fraction(1, 2)
    assert PowerSeries(["1/3", 2]).coeffs == (Fraction(1, 3), 2)
    assert all(type(c) is Fraction for c in PowerSeries.from_counts([1, 2]).coeffs)
