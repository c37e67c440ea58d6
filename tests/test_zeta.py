import math
import random
import warnings
from fractions import Fraction

import pytest

from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    periodic_orbit_tower_puzzle,
    words_avoiding,
)
from qfpuzzles.graphs import (
    based_loop_counts,
    complete_graph,
    gamma_n,
    loop_graph,
    periodic_point_counts,
    sft_graph,
    two_hub_graph,
)
from qfpuzzles.polys import RationalPolynomial, _primitive_ints, rational_roots
from qfpuzzles.puzzle import PuzzleError, from_subshift
from qfpuzzles.series import PowerSeries, SeriesError
from qfpuzzles.zeta import (
    NotRationalError,
    PeriodicClass,
    TruncationWarning,
    counts_from_zeta,
    first_return_matrix,
    loop_graph_zeta,
    pade_pole_analysis,
    periodic_empirical_measure,
    puzzle_zeta_n,
    semi_local_zeta_brute,
    semi_local_zeta_det,
    zeta_from_counts,
)

from test_fuzz import reference_puzzle_zeta
from test_graphs import matrix_power_traces
from test_series import geometric


def ratio_series(num, den, order):
    return PowerSeries(num, order=order) * PowerSeries(den, order=order).reciprocal()


def test_zeta_from_powers_of_two():
    assert zeta_from_counts([2**n for n in range(1, 13)]) == geometric(2, 12)


def test_zeta_of_no_points_is_one():
    z = zeta_from_counts([0] * 10)
    assert z == PowerSeries.one(10)


def test_zeta_of_lucas_counts_matches_determinant_oracle():
    lucas = matrix_power_traces([[1, 1], [1, 0]], 12)
    # independent determinant: det(Id - zA) = 1 - z - z^2 for this matrix
    assert zeta_from_counts(lucas) == ratio_series([1], [1, -1, -1], 12)


def test_zeta_from_counts_order_bounds():
    assert zeta_from_counts([2, 4, 8], order=0) == PowerSeries.one(0)
    assert zeta_from_counts([], order=3) == PowerSeries.one(3)
    for order in (-1, -5):
        with pytest.raises(SeriesError, match="order must be >= 0"):
            zeta_from_counts([2, 4, 8], order=order)


def test_counts_roundtrip_through_log():
    counts = [3, 1, 4, 1, 5, 9, 2, 6]
    assert counts_from_zeta(zeta_from_counts(counts)) == counts


def test_first_return_matrix_k3_single_vertex():
    k3 = complete_graph(3)
    L = first_return_matrix(k3, ["0"], 10)
    entry = L.entry("0", "0")
    assert entry[0] == 0 and entry[1] == 1
    assert [entry[k] for k in range(2, 11)] == [2 ** (k - 1) for k in range(2, 11)]


def test_first_return_matrix_loop_graph_is_input():
    g = loop_graph([0, 2, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        L = first_return_matrix(g, ["a"], 8)
    assert list(L.entry("a", "a")) == [0, 0, 2, 1, 0, 0, 0, 0, 0]


def test_first_return_matrix_two_vertices_of_k3():
    k3 = complete_graph(3)
    L = first_return_matrix(k3, ["0", "1"], 6)
    # Only vertex 2 is available between returns: each pair conects by
    # the direct edge and by the unique corridor through 2 of each length.
    for u in ("0", "1"):
        for v in ("0", "1"):
            assert list(L.entry(u, v))[1:] == [1, 1, 1, 1, 1, 1]


def test_semi_local_zeta_k3():
    k3 = complete_graph(3)
    assert semi_local_zeta_det(k3, ["0"], 12) == ratio_series([1, -2], [1, -3], 12)
    assert semi_local_zeta_det(k3, k3.vertices, 12) == geometric(3, 12)


def test_semi_local_zeta_brute_k3_by_inclusion_exclusion():
    k3 = complete_graph(3)
    expected = zeta_from_counts([3**n - 2**n for n in range(1, 11)])
    assert semi_local_zeta_brute(k3, ["0"], 10) == expected


def test_semi_local_empty_subset_is_one():
    k3 = complete_graph(3)
    assert semi_local_zeta_brute(k3, [], 8) == PowerSeries.one(8)
    assert semi_local_zeta_det(k3, [], 8) == PowerSeries.one(8)


@pytest.mark.parametrize("F", [[], ["0"], ["0", "1"]])
def test_semi_local_routes_reject_negative_order(F):
    k2 = complete_graph(2)
    for route in (semi_local_zeta_det, semi_local_zeta_brute, first_return_matrix):
        with pytest.raises(SeriesError, match="order must be >= 0, got -1"):
            route(k2, F, -1)


def test_det_equals_brute_on_random_digraphs():
    rng = random.Random(17)
    for _ in range(15):
        d = rng.randint(1, 5)
        matrix = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
        g = sft_graph(matrix)
        F = [v for v in g.vertices if rng.random() < 0.6]
        assert semi_local_zeta_det(g, F, 8) == semi_local_zeta_brute(g, F, 8)


def test_semi_local_quotient_identities():
    rng = random.Random(23)
    for _ in range(10):
        d = rng.randint(2, 5)
        matrix = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
        g = sft_graph(matrix)
        verts = list(g.vertices)
        F = [v for v in verts if rng.random() < 0.4]
        H = sorted(set(F) | {v for v in verts if rng.random() < 0.4})
        K = 8
        zeta_full = zeta_from_counts(periodic_point_counts(g, K))
        zeta_rest = zeta_from_counts(periodic_point_counts(g.without(F), K))
        assert semi_local_zeta_det(g, F, K) * zeta_rest == zeta_full
        lhs = semi_local_zeta_det(g, H, K) * semi_local_zeta_det(g, F, K).reciprocal()
        rhs = semi_local_zeta_det(
            g.without(F), [v for v in H if v not in F], K
        )
        assert lhs == rhs


def test_loop_graph_zeta_identities():
    z = PowerSeries.z(12)
    assert loop_graph_zeta(z) == geometric(1, 12)
    two_z2 = 2 * z * z
    expanded = loop_graph_zeta(two_z2)
    for m in range(0, 7):
        assert expanded[2 * m] == 2**m
        if 2 * m + 1 <= 12:
            assert expanded[2 * m + 1] == 0
    five = PowerSeries.from_counts([5**n for n in range(1, 13)])
    assert loop_graph_zeta(five) == ratio_series([1, -5], [1, -10], 12)


def test_loop_graph_zeta_preconditions():
    with pytest.raises(SeriesError):
        loop_graph_zeta(PowerSeries.one(6))
    with pytest.raises(SeriesError):
        loop_graph_zeta(PowerSeries([0, Fraction(1, 2)], order=6))


def test_loop_graph_zeta_matches_det_route():
    rng = random.Random(29)
    for _ in range(10):
        f = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        if not any(f):
            continue
        g = loop_graph(f)
        K = len(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            det = semi_local_zeta_det(g, ["a"], K)
        assert det == loop_graph_zeta(PowerSeries.from_counts(f, order=K))


def test_pade_simple_pole():
    series = ratio_series([1, -2], [1, -3], 12)
    report = pade_pole_analysis(series, 1, 1)
    assert report.rational.numerator == (1, -2)
    assert report.rational.denominator == (1, -3)
    assert report.poles == (Fraction(1, 3),)
    assert report.irreducible_factors == ()


def test_pade_pole_at_one_tenth():
    series = ratio_series([1, -5], [1, -10], 12)
    report = pade_pole_analysis(series, 1, 1)
    assert report.poles == (Fraction(1, 10),)


def test_pade_constant_series():
    report = pade_pole_analysis(PowerSeries.one(10), 0, 0)
    assert report.poles == ()
    assert report.rational.denominator == (1,)


def test_pade_rejects_non_rational():
    # exp(z) is not rational at degrees (1, 1).
    series = PowerSeries.z(10).exp()
    with pytest.raises(NotRationalError):
        pade_pole_analysis(series, 1, 1)
    # 1 + z^2 at (1, 1): the system reads 0 * q_1 = -1
    with pytest.raises(NotRationalError, match="not solvable"):
        pade_pole_analysis(PowerSeries([1, 0, 1], order=6), 1, 1)


def test_pade_reports_irrational_poles_as_factor():
    series = ratio_series([1], [1, -1, -1], 12)
    report = pade_pole_analysis(series, 0, 2)
    assert report.poles == ()
    assert report.irreducible_factors == ((1, -1, -1),)


def test_pade_reports_the_rootless_rest_whole_not_factored():
    # 1 / ((1 + z + z^2)(1 + z^2)): two irreducible quadratics, one reported factor
    series = ratio_series([1], [1, 1, 2, 1, 1], 12)
    report = pade_pole_analysis(series, 0, 4)
    assert report.poles == ()
    assert report.irreducible_factors == ((1, 1, 2, 1, 1),)


def test_pade_reconstruction_matches_series():
    series = ratio_series([2, 1], [1, 0, -1, 3], 14)
    report = pade_pole_analysis(series, 1, 3)
    assert report.rational.series(14) == series


def test_pade_fractional_coefficients_keep_the_function():
    # (1/2) / (1 - z/3): integer normalization must scale numerator and
    # denominator together.
    series = ratio_series([Fraction(1, 2)], [1, Fraction(-1, 3)], 12)
    report = pade_pole_analysis(series, 0, 1)
    assert report.rational.series(12) == series
    assert report.poles == (Fraction(3),)


def reference_poles_of(den):
    """Poles and the primitive leftover factor of a denominator, by a fresh

    rational-root search after each root divided out.
    """
    poly = RationalPolynomial(den)
    poles = []
    while poly.degree > 0:
        roots = rational_roots(poly)
        if not roots:
            break
        poles.append(roots[0])
        poly, rem = poly.divmod(RationalPolynomial([-roots[0], 1]))
        assert rem.is_zero()
    leftovers = []
    if poly.degree > 0:
        ints = _primitive_ints(poly.coeffs)
        leftovers.append(tuple(-c for c in ints) if ints[0] < 0 else tuple(ints))
    return sorted(poles), leftovers


def test_pade_repeated_poles():
    # 1 / ((1 - 2z)^2 (1 + z + z^2)) and 1 / (1 - 3z)^3
    den = (RationalPolynomial([1, -2]) * RationalPolynomial([1, -2]) * RationalPolynomial([1, 1, 1])).coeffs
    report = pade_pole_analysis(ratio_series([1], list(den), 12), 0, 4)
    assert report.poles == (Fraction(1, 2), Fraction(1, 2))
    assert report.irreducible_factors == ((1, 1, 1),)
    report = pade_pole_analysis(ratio_series([1], [1, -9, 27, -27], 12), 0, 3)
    assert report.poles == (Fraction(1, 3),) * 3
    assert report.irreducible_factors == ()


def test_pade_poles_match_reference_poles_of_on_repeated_roots():
    rng = random.Random(29)
    inverse_poles = [Fraction(n, d) for n in range(-4, 5) if n for d in (1, 2, 3)]
    for _ in range(60):
        # one inverse pole two or three times, up to two others, and maybe 1 + z + z^2
        picks = [rng.choice(inverse_poles)] * rng.randint(2, 3) + rng.sample(inverse_poles, rng.randint(0, 2))
        den = RationalPolynomial([1])
        for r in picks:
            den = den * RationalPolynomial([1, -r])
        if rng.random() < 0.5:
            den = den * RationalPolynomial([1, 1, 1])
        num = [rng.randint(1, 3), *(rng.randint(-3, 3) for _ in range(rng.randint(0, 2)))]
        series = ratio_series(num, list(den.coeffs), 16)
        report = pade_pole_analysis(series, len(num) - 1, den.degree)
        poles, leftovers = reference_poles_of(report.rational.denominator)
        assert list(report.poles) == poles and list(report.irreducible_factors) == leftovers
        assert report.rational.series(16) == series


def test_puzzle_zeta_full_shift():
    p = full_shift_puzzle(5)
    res = puzzle_zeta_n(p, 1, 8, 4)
    assert res.counts_total == tuple(2**n for n in range(1, 9))
    assert res.counts_certified == res.counts_total
    assert res.counts_uncertified == (0,) * 8
    assert res.zeta == geometric(2, 8)
    assert {c.tag for c in res.classes} == {"liftable-with-low-return"}


def test_puzzle_zeta_golden_mean_matches_trace_oracle():
    p = golden_mean_puzzle(5)
    res = puzzle_zeta_n(p, 2, 8, 5)
    assert list(res.counts_certified) == matrix_power_traces([[1, 1], [1, 0]], 8)
    assert res.counts_uncertified == (0,) * 8


def test_puzzle_zeta_tags_lifts_at_full_depth_as_unknown():
    # pieces of order depth have no level below them, so their chains say nothing
    p = golden_mean_puzzle(5)
    for level in (1, 2):
        at_depth = puzzle_zeta_n(p, level, 8, 5)
        assert {c.tag for c in at_depth.classes} == {"liftable-unknown-beyond-depth"}
        below = puzzle_zeta_n(p, level, 8, 4)
        assert {c.tag for c in below.classes} == {"liftable-with-low-return"}
        assert at_depth.counts_certified == below.counts_certified


def test_puzzle_zeta_orbit_tower_counts_stay_finite():
    p = periodic_orbit_tower_puzzle([2, 3, 2, 2], 4)
    res = puzzle_zeta_n(p, 1, 4, 3)
    assert all(t < 60 for t in res.counts_total)
    assert all(c <= t for c, t in zip(res.counts_certified, res.counts_total))
    tags = {c.tag for c in res.classes}
    assert tags <= {"liftable-with-low-return", "liftable-high", "unliftable-at-depth"}
    assert "liftable-high" in tags  # the zero spine accumulates constraints


def test_periodic_class_is_a_named_tuple():
    c = PeriodicClass(("0", "1"), True, "liftable-high")
    assert PeriodicClass._fields == ("word", "certified", "tag")
    assert (c.word, c.certified, c.tag) == tuple(c) == (("0", "1"), True, "liftable-high")
    assert c == (("0", "1"), True, "liftable-high")  # equal to the plain tuple of its fields
    assert repr(c) == "PeriodicClass(word=('0', '1'), certified=True, tag='liftable-high')"
    with pytest.raises(AttributeError):
        c.tag = "unliftable-at-depth"
    assert hash(c) == hash(tuple(c))


def test_puzzle_zeta_classes_equal_the_reference_records():
    tower = periodic_orbit_tower_puzzle([2, 3, 2, 2, 3], 5)
    no101 = from_subshift(words_avoiding("01", [("1", "0", "1")], 6), 6)
    tags = set()
    for p, level, order, cert in ((tower, 1, 6, 3), (tower, 1, 5, 5), (no101, 1, 8, 4)):
        res = puzzle_zeta_n(p, level, order, cert)
        expected = reference_puzzle_zeta(p, level, order, cert).classes
        assert all(type(c) is PeriodicClass for c in res.classes)
        assert [tuple(c) for c in res.classes] == [(c.word, c.certified, c.tag) for c in expected]
        tags.update(c.tag for c in res.classes)
    assert len(tags) == 4


def test_puzzle_zeta_precondition():
    p = full_shift_puzzle(3)
    with pytest.raises(ValueError):
        puzzle_zeta_n(p, 2, 4, 2)


@pytest.mark.parametrize("level", [0, -1])
def test_puzzle_zeta_refuses_levels_without_a_transition_graph(level):
    # the level graph is gamma_n(p, level), defined for 1 <= level <= depth - 1
    p = full_shift_puzzle(3)
    message = f"^level {level} needs pieces of order {level + 1}; depth is 3$"
    with pytest.raises(PuzzleError, match=message):
        gamma_n(p, level)
    with pytest.raises(PuzzleError, match=message):
        puzzle_zeta_n(p, level, 4, 2)


def test_empirical_measure_symmetric_graph():
    k2 = complete_graph(2)
    freqs = periodic_empirical_measure(k2, 7)
    assert freqs == {"0": Fraction(1, 2), "1": Fraction(1, 2)}


def test_empirical_measure_three_cycle():
    g = sft_graph([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    freqs = periodic_empirical_measure(g, 3)
    assert set(freqs.values()) == {Fraction(1, 3)}


def test_empirical_measure_matches_loop_and_point_counts():
    rng = random.Random(11)
    for _ in range(12):
        d = rng.randint(1, 4)
        g = sft_graph([[rng.randint(0, 1) for _ in range(d)] for _ in range(d)])
        for n in range(1, 7):
            total = periodic_point_counts(g, n)[n - 1]
            if total == 0:
                with pytest.raises(ValueError):
                    periodic_empirical_measure(g, n)
                continue
            expected = {v: Fraction(based_loop_counts(g, v, n)[n - 1], total) for v in g.vertices}
            assert periodic_empirical_measure(g, n) == expected
    with pytest.raises(ValueError):
        periodic_empirical_measure(complete_graph(2), 0)


def test_empirical_measure_golden_mean_near_parry():
    g = sft_graph([[1, 1], [1, 0]])
    freqs = periodic_empirical_measure(g, 12)
    # Parry weight of the [0]-cylinder from the Perron eigenvector of
    # [[1,1],[1,0]]: v = (phi, 1), weight phi^2 / (phi^2 + 1).
    phi = (1 + math.sqrt(5)) / 2
    parry = phi * phi / (phi * phi + 1)
    assert abs(float(freqs["0"]) - parry) < 0.02


def test_truncation_warning_fires():
    g = loop_graph([0, 2])
    with pytest.warns(TruncationWarning):
        semi_local_zeta_det(g, ["a"], 10)
