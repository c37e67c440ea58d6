import random
from fractions import Fraction

import pytest

from qfpuzzles.polys import (
    RationalPolynomial,
    _product,
    det_fraction,
    poly_gcd,
    rational_roots,
    sylvester_matrix,
    sylvester_resultant,
)


def poly(*coeffs):
    return RationalPolynomial(coeffs)


def reference_poly_mul(a, b):
    """Product of two coefficient lists by the schoolbook double loop over

    their nonzero coefficients, sharing no code with the series product.
    """
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return RationalPolynomial(out)


def seeded_polys(seed, count):
    """The zero polynomial, constants, and ``count`` seeded ``Fraction``

    polynomials of lengths 1 to 7, zero coefficients and zero tops included.
    """
    rng = random.Random(seed)
    values = [Fraction(0)] * 3 + [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    out = [[0], [Fraction(5, 2)], [-1], [0, 0, 0]]
    out += [[rng.choice(values) for _ in range(rng.randint(1, 7))] for _ in range(count)]
    return out


def test_product_matches_reference_poly_mul():
    lists = seeded_polys(31, 60)
    for a in lists:
        for b in lists[::3]:
            want = reference_poly_mul(a, b)
            assert poly(*a) * poly(*b) == want == poly(*b) * poly(*a)
            # raw lists keep their zero tops: the product is as long as the padding
            assert len(_product(a, b)) == len(a) + len(b) - 1
            assert RationalPolynomial(_product(a, b)) == want
    # tops and middles that cancel: (1 + x)(1 - x) = 1 - x^2, (1 + x + x^2)(1 - x) = 1 - x^3
    assert poly(1, 1) * poly(1, -1) == poly(1, 0, -1) == reference_poly_mul([1, 1], [1, -1])
    assert poly(1, 1, 1) * poly(1, -1) == poly(1, 0, 0, -1)
    assert _product([1, 2, 0], [3, 0]) == [3, 6, 0, 0]


def test_divmod_reconstructs():
    p = poly(2, 0, -3, 1)  # x^3 - 3x^2 + 2
    d = poly(-1, 1)  # x - 1
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_gcd_of_shared_factor():
    shared = poly(-1, 1)
    a = shared * poly(2, 1)
    b = shared * poly(-3, 1)
    assert poly_gcd(a, b) == shared.monic()


def test_resultant_linear_case():
    assert sylvester_resultant(poly(-1, 1), poly(1, 1)) == 2


def test_resultant_of_equal_polynomials_vanishes():
    p = poly(1, 2, 3)
    assert sylvester_resultant(p, p) == 0


def test_resultant_vs_root_product():
    # Res(p, q) = lead(p)^deg q * prod q(root_p); here p = x^2-1, q = x^2-4.
    p = poly(-1, 0, 1)
    q = poly(-4, 0, 1)
    assert sylvester_resultant(p, q) == (1 - 4) * (1 - 4)


def test_sylvester_matrix_shape():
    m = sylvester_matrix(poly(7, -7, 0, 1), poly(-7, 0, 3))
    assert len(m) == 5 and all(len(row) == 5 for row in m)


def test_resultant_vanishes_iff_gcd_nonconstant():
    rng = random.Random(11)
    for _ in range(60):
        a = poly(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 5))])
        b = poly(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 5))])
        if a.is_zero() or b.is_zero():
            continue
        res = sylvester_resultant(a, b)
        if a.degree < 1 or b.degree < 1:
            continue
        g = poly_gcd(a, b)
        assert (res == 0) == (g.degree >= 1)


def test_rational_roots_exact():
    p = poly(1, 1) * poly(-3, 1) * poly(1, 0, 1)  # roots -1, 3; x^2+1 rootless
    assert rational_roots(p) == [Fraction(-1), Fraction(3)]
    assert rational_roots(poly(0, 1, 1)) == [Fraction(-1), Fraction(0)]


def test_det_fraction_singular_and_regular():
    assert det_fraction([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    assert det_fraction([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]) == 1
    # a zero leading entry forces a row swap, which flips the sign
    assert det_fraction([[Fraction(0), Fraction(1)], [Fraction(3), Fraction(5)]]) == -3


def test_zero_polynomial_conventions():
    z = RationalPolynomial.zero()
    assert z.degree == -1
    with pytest.raises(ValueError):
        sylvester_resultant(z, poly(1, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda r: RationalPolynomial([0.1, 1]),
        lambda r: RationalPolynomial([Fraction(1, 2), 2.0]),
        lambda r: r(0.1),
        lambda r: r + 0.5,
        lambda r: 0.5 + r,
        lambda r: r - 0.5,
        lambda r: 0.5 - r,
        lambda r: r * 0.5,
        lambda r: 0.5 * r,
    ],
    ids=["init", "init-integral-float", "call", "add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_floats_are_refused(call):
    # 0.1 would enter as 3602879701896397/36028797018963968, its binary expansion
    with pytest.raises(TypeError, match="float"):
        call(poly(1, 1))


def test_exact_scalars_still_accepted():
    r = poly(1, 1)
    assert RationalPolynomial(["1/10", 1]).coeffs == (Fraction(1, 10), 1)
    assert all(type(c) is Fraction for c in RationalPolynomial([1, Fraction(1, 2)]).coeffs)
    assert r(Fraction(1, 10)) == Fraction(11, 10) and r(2) == 3 and r("1/3") == Fraction(4, 3)
    assert r + Fraction(1, 2) == poly(Fraction(3, 2), 1)
    assert 1 - r == poly(0, -1) and r - 1 == poly(0, 1)
    assert r * Fraction(1, 3) == poly(Fraction(1, 3), Fraction(1, 3)) == Fraction(1, 3) * r
