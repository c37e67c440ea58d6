import random
from fractions import Fraction

import pytest

from qfpuzzles.series import PowerSeries, SeriesError, geometric


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
