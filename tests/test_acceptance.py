"""Acceptance suite: one test per criterion, pinned tolerances, one

pass/fail line each (run with ``pytest -s tests/test_acceptance.py`` to
see the lines).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
    words_avoiding,
)
from qfpuzzles.coupled import (
    CouplingParams,
    UNIT_SQUARE,
    build_puzzle,
    component_counts_1d,
    component_counts_2d,
    image_box,
    iterate_polynomial,
    refine_cylinders,
)
from qfpuzzles.diagram import (
    build_diagram,
    entropy_at_infinity_estimate,
    gurevich_entropy_estimate,
    path_to_piece,
)
from qfpuzzles.graphs import (
    avoiding_path_counts,
    based_loop_counts,
    complete_graph,
    gamma_n,
    loop_graph,
    periodic_point_counts,
    sft_graph,
    two_hub_graph,
)
from qfpuzzles.polys import RationalPolynomial, poly_gcd, sylvester_resultant
from qfpuzzles.puzzle import from_subshift
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.series import PowerSeries
from qfpuzzles.zeta import (
    pade_pole_analysis,
    periodic_empirical_measure,
    puzzle_zeta_n,
    semi_local_zeta_brute,
    semi_local_zeta_det,
)

from test_coupled import sign_partition
from test_series import geometric

HALF = Fraction(1, 2)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def rational_series(num, den, order):
    return PowerSeries(num, order=order) * PowerSeries(den, order=order).reciprocal()


def matrix_traces(matrix, n_max):
    d = len(matrix)
    power = [[1 if r == c else 0 for c in range(d)] for r in range(d)]
    traces = []
    for _ in range(n_max):
        power = [
            [sum(power[r][k] * matrix[k][c] for k in range(d)) for c in range(d)]
            for r in range(d)
        ]
        traces.append(sum(power[r][r] for r in range(d)))
    return traces


def test_criterion_01_complete_graph_semilocal_zeta():
    with criterion(1, "K3 semi-local zeta"):
        start = time.monotonic()
        k3 = complete_graph(3)
        assert semi_local_zeta_det(k3, ["0"], 12) == rational_series([1, -2], [1, -3], 12)
        assert semi_local_zeta_det(k3, k3.vertices, 12) == geometric(3, 12)
        assert time.monotonic() - start < 1.0


def test_criterion_02_determinant_vs_direct_counting():
    with criterion(2, "determinant/direct cross-oracle on 50 digraphs"):
        start = time.monotonic()
        rng = random.Random(2024)
        done = 0
        while done < 50:
            d = rng.randint(1, 6)
            matrix = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
            g = sft_graph(matrix)
            F = [v for v in g.vertices if rng.random() < 0.5]
            assert semi_local_zeta_det(g, F, 10) == semi_local_zeta_brute(g, F, 10)
            done += 1
        assert time.monotonic() - start < 30.0


def test_criterion_03_two_hub_rational_zeta():
    with criterion(3, "two-hub golden test"):
        start = time.monotonic()
        L = 20
        q = [0] * (L + 1)
        for m in range(L):
            if 6 + 2 * m <= L:
                q[6 + 2 * m] = 2**m
        a_counts = [5**n - q[n] for n in range(1, L + 1)]
        assert all(c >= 0 for c in a_counts)
        g = two_hub_graph(a_counts, [0, 2], [0, 1], [0, 0, 0, 1], L)

        measured = avoiding_path_counts(g, "a", {"a"}, 12)["a"]
        assert measured == [5**n for n in range(1, 13)]

        zeta_a = semi_local_zeta_det(g, ["a"], 12)
        assert zeta_a == rational_series([1, -5], [1, -10], 12)

        report = pade_pole_analysis(zeta_a, 1, 1)
        assert report.poles == (Fraction(1, 10),)
        assert abs(-math.log(Fraction(1, 10)) - math.log(10)) < 1e-12

        loops = gurevich_entropy_estimate(g, "a", 10)
        assert abs(loops.row(10).ratio - math.log(10)) < 0.05

        excursions = entropy_at_infinity_estimate(g, ["a", "b"], 20)
        assert abs(excursions.row(20).rate - math.log(5)) < 0.02
        assert time.monotonic() - start < 120.0


def test_criterion_04_loop_graph_identity():
    with criterion(4, "loop-graph identity on 50 materialized graphs"):
        rng = random.Random(404)
        done = 0
        while done < 50:
            f = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
            if not any(f):
                continue
            done += 1
            g = loop_graph(f).materialize()
            # independent loop counter: integer DP over explicit unit edges
            adjacency = {}
            for e in g.edges:
                adjacency.setdefault(e.src, {})
                adjacency[e.src][e.dst] = adjacency[e.src].get(e.dst, 0) + e.multiplicity
            counts = []
            vec = {"a": 1}
            for _ in range(12):
                nxt = {}
                for v, c in vec.items():
                    for w, m in adjacency.get(v, {}).items():
                        nxt[w] = nxt.get(w, 0) + c * m
                vec = nxt
                counts.append(vec.get("a", 0))
            series = (1 - PowerSeries.from_counts(f, order=12)).reciprocal()
            assert counts == [int(series[n]) for n in range(1, 13)]


def test_criterion_05_full_shift_pipeline():
    with criterion(5, "full 2-shift pipeline"):
        p = full_shift_puzzle(5)
        an = ReducibilityAnalyzer(p)
        level1 = an.irreducible_pieces(1)
        assert sorted(p.label(v) for v in level1.certified) == ["0", "1"]
        for n in (2, 3, 4):
            level = an.irreducible_pieces(n)
            assert level.certified == () and level.unknown == ()
        d = build_diagram(p, 3, an)
        pairs = sorted((p.label(a.source), p.label(a.target)) for a in d.arrows)
        assert pairs == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        res = puzzle_zeta_n(p, 1, 10, 4, an)
        assert res.counts_certified == tuple(2**n for n in range(1, 11))
        assert res.counts_uncertified == (0,) * 10
        assert res.zeta == geometric(2, 10)


def test_criterion_06_golden_mean_pipeline():
    with criterion(6, "golden-mean pipeline"):
        p = golden_mean_puzzle(5)
        res = puzzle_zeta_n(p, 2, 10, 5)
        oracle = matrix_traces([[1, 1], [1, 0]], 10)
        assert list(res.counts_certified) == oracle
        assert res.counts_uncertified == (0,) * 10
        graph_counts = periodic_point_counts(gamma_n(p, 2), 10)
        assert graph_counts == oracle


def example_puzzles_depth4():
    return [
        full_shift_puzzle(4),
        golden_mean_puzzle(4),
        from_subshift(words_avoiding("01", [("1", "1", "1")], 4), 4, name="no111"),
        from_subshift(words_avoiding("012", [("0", "0")], 4), 4, name="no00"),
        layered_full_shifts_puzzle(2, 4),
        periodic_orbit_tower_puzzle([2, 3, 2, 2], 4),
        undetermined_puzzle(),
    ]


def test_criterion_07_reducibility_closure_properties():
    with criterion(7, "reducibility closure properties"):
        violations = 0
        for p in example_puzzles_depth4():
            an = ReducibilityAnalyzer(p)
            for n in range(2, p.depth):
                for v in an.irreducible_pieces(n).certified:
                    if not an.verdict(p.i(v)).is_irreducible:
                        violations += 1
            for n in range(1, p.depth + 1):
                per_parent = {}
                for v in p.level(n):
                    per_parent.setdefault(p.i(v), []).append(v)
                for group in per_parent.values():
                    reached = {}
                    for u in group:
                        chain = an.reduction_chain(u)
                        pieces = chain.pieces
                        if chain.kind == "unknown":
                            pieces = pieces[:-1]
                        for k, piece in enumerate(pieces):
                            if k == 0:
                                continue
                            if piece in reached and reached[piece] != (u, k):
                                violations += 1
                            reached[piece] = (u, k)
        assert violations == 0


def test_criterion_08_path_piece_correspondence():
    with criterion(8, "path/piece correspondence on 200 random paths"):
        rng = random.Random(808)
        puzzles = [
            full_shift_puzzle(6),
            golden_mean_puzzle(6),
            from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6, name="no111"),
        ]
        diagrams = [build_diagram(p, 3) for p in puzzles]
        checked = 0
        while checked < 200:
            d = diagrams[rng.randrange(len(diagrams))]
            p = d.puzzle
            start = d.vertices[rng.randrange(len(d.vertices))]
            path = [start]
            budget = p.depth - p.order(start) - 1
            steps = rng.randint(1, max(1, budget))
            for _ in range(steps):
                succ = d.successors(path[-1])
                if not succ:
                    break
                path.append(succ[rng.randrange(len(succ))])
            if len(path) < 2:
                continue
            full = path_to_piece(d, path)  # asserts (i) and (ii) internally
            n = len(path) - 1
            assert p.i_iter(full, n) == path[0]
            an = d.analyzer
            for k in range(n + 1):
                q = p.i_iter(full, k)
                target = path[n - k]
                m = p.order(q) - p.order(target)
                outcome = q
                ok = True
                for _ in range(m):
                    verdict = an.verdict(outcome)
                    if verdict.is_irreducible:
                        ok = False
                        break
                    outcome = p.f(outcome)
                assert ok and outcome == target
            prefix = path_to_piece(d, path[:-1])
            assert p.i(full) == prefix
            checked += 1


def test_criterion_09_determinacy():
    with criterion(9, "determinacy verdicts"):
        for p in (
            full_shift_puzzle(4),
            golden_mean_puzzle(5),
            from_subshift(words_avoiding("01", [("1", "1", "1")], 5), 5),
            periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5),
        ):
            res = ReducibilityAnalyzer(p).is_determined()
            assert res.determined, p.name
        bad = undetermined_puzzle()
        res = ReducibilityAnalyzer(bad).is_determined()
        assert not res.determined
        assert tuple(bad.label(v) for v in res.counterexample) == ("u", "v")


def test_criterion_10_equidistribution():
    with criterion(10, "periodic equidistribution on the golden mean"):
        g = sft_graph([[1, 1], [1, 0]])
        freqs = periodic_empirical_measure(g, 12)
        # Perron eigenvector oracle by power iteration on A and A^T.
        matrix = [[1.0, 1.0], [1.0, 0.0]]
        right = [1.0, 1.0]
        left = [1.0, 1.0]
        for _ in range(60):
            right = [sum(matrix[r][c] * right[c] for c in range(2)) for r in range(2)]
            left = [sum(matrix[r][c] * left[r] for r in range(2)) for c in range(2)]
            rn = max(right)
            ln = max(left)
            right = [x / rn for x in right]
            left = [x / ln for x in left]
        total = sum(l * r for l, r in zip(left, right))
        parry0 = left[0] * right[0] / total
        assert abs(float(freqs["0"]) - parry0) < 0.02


def test_criterion_11_orbit_polynomials_and_resultants():
    with criterion(11, "orbit polynomials and resultants"):
        params = CouplingParams.make(1, 1, 0)
        p1 = iterate_polynomial(params, 1)
        p2 = iterate_polynomial(params, 2)
        assert p1 == RationalPolynomial([HALF, 0, -4])
        assert p2 == RationalPolynomial([HALF]) - (p1 * p1) * 4
        assert sylvester_resultant(p1, p2) != 0

        rng = random.Random(1111)
        for _ in range(20):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 5))]
            poly = RationalPolynomial(coeffs)
            if poly.degree < 1:
                continue
            assert sylvester_resultant(poly, poly) == 0
        done = 0
        while done < 50:
            a = RationalPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(2, 5))])
            b = RationalPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(2, 5))])
            if a.degree < 1 or b.degree < 1:
                continue
            done += 1
            res = sylvester_resultant(a, b)
            assert (res == 0) == (poly_gcd(a, b).degree >= 1)


def test_criterion_12_coupled_map_extraction():
    with criterion(12, "coupled-map puzzle extraction"):
        params = CouplingParams.make(1, 1, 0)
        build = build_puzzle(params, 2, 6)
        assert build.puzzle.validate().ok
        counts_2d = component_counts_2d(build)
        counts_1d = component_counts_1d(Fraction(1), 2, 6)
        assert counts_2d == [c * c for c in counts_1d]
        # nesting and outer soundness over all retained boxes
        shallow = refine_cylinders(params, 1, 6)
        deep = refine_cylinders(params, 2, 6)
        quads = sign_partition()
        for itin, boxes in deep.items():
            assert set(boxes) <= set(shallow[itin[:1]])
            for box in boxes:
                img = image_box(params, box).intersection(UNIT_SQUARE)
                assert img is not None and img.touches(quads[itin[1]])
