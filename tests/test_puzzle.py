import itertools
import math
import random

import pytest

from qfpuzzles.constructions import (
    full_shift_puzzle,
    full_shift_words,
    golden_mean_puzzle,
    golden_mean_words,
    periodic_orbit_tower_puzzle,
)
from qfpuzzles.puzzle import (
    DyadicDistance,
    Puzzle,
    PuzzleError,
    bowen_ball,
    covering_number,
    distance,
    dual,
    from_refinement,
    from_subshift,
    sequence_entropy,
)


def all_binary_words(n):
    return ["".join(w) for w in itertools.product("01", repeat=n)]


def test_full_shift_level_sizes():
    p = full_shift_puzzle(3)
    assert [len(p.level(n)) for n in range(4)] == [1, 2, 4, 8]
    assert p.validate().ok


def test_golden_mean_level_sizes_from_enumeration():
    # Independent oracle: filter raw binary words by the forbidden factor.
    expected = [len([w for w in all_binary_words(n) if "11" not in w]) for n in (1, 2, 3)]
    assert expected == [2, 3, 5]
    p = golden_mean_puzzle(3)
    assert [len(p.level(n)) for n in (1, 2, 3)] == expected
    assert p.validate().ok


def test_from_subshift_rejects_unclosed_word_set():
    with pytest.raises(PuzzleError):
        from_subshift({"", "0", "00", "10"}, 2)


def test_validate_reports_level_skip():
    p = full_shift_puzzle(3)
    broken = p.with_f_override({"01": "ε"})
    report = broken.validate()
    assert not report.ok
    assert [v.piece for v in report.by_kind("level-skip")] == ["01"]


def test_validate_reports_commutation_failure():
    p = full_shift_puzzle(3)
    broken = p.with_f_override({"010": "00"})  # f(i) = "1" but i(f) = "0"
    report = broken.validate()
    kinds = {v.kind for v in report.violations}
    assert kinds == {"commutation"}
    assert report.by_kind("commutation")[0].piece == "010"


def test_validate_reports_multi_root():
    doubled = Puzzle([["r1", "r2"], ["x"]], {"x": "r1"}, {"x": "r1"})
    assert doubled.validate().by_kind("multi-root")


def test_from_refinement_matches_subshift_construction():
    p = full_shift_puzzle(3)
    levels = [[p.label(v) for v in p.level(n)] for n in range(4)]
    containing = {}
    image = {}
    for n in range(1, 4):
        for v in p.level(n):
            containing[p.label(v)] = p.label(p.i(v))
            image[p.label(v)] = p.label(p.f(v))
    q = from_refinement(levels, containing, image)
    assert q.to_json() == p.to_json()


def test_from_refinement_rejects_level_skip():
    with pytest.raises(PuzzleError):
        from_refinement(
            [["r"], ["a"], ["b"]],
            {"a": "r", "b": "r"},  # b skips level 1
            {"a": "r", "b": "a"},
        )


def test_from_refinement_rejects_single_level():
    with pytest.raises(PuzzleError):
        from_refinement([["r"]], {}, {})


def test_dual_is_involution():
    p = golden_mean_puzzle(4)
    assert dual(dual(p)).to_json() == p.to_json()


def test_dual_of_full_shift_is_word_reversal():
    # reversal conjugates (V, i, f) to (V, f, i): rev(i(w)) == f*(rev(w)).
    p = full_shift_puzzle(3)
    d = dual(p)
    for n in range(1, 4):
        for v in p.level(n):
            w = p.label(v)
            rev = w[::-1]
            assert d.label(d.i(d.id_of(rev))) == p.label(p.i(v))[::-1]
            assert d.label(d.f(d.id_of(rev))) == p.label(p.f(v))[::-1]


def test_dual_of_orbit_tower_is_valid():
    p = periodic_orbit_tower_puzzle([2, 3, 2, 2], 4)
    assert dual(p).validate().ok


def test_distance_examples():
    p = full_shift_puzzle(3)
    a, b = p.id_of("01"), p.id_of("00")
    assert distance(p, a, a) == DyadicDistance.zero()
    assert distance(p, a, b) == DyadicDistance(1)
    assert distance(p, p.id_of("0"), p.id_of("1")) == DyadicDistance(0)


def test_distance_across_orders():
    p = full_shift_puzzle(3)
    assert distance(p, p.id_of("0"), p.id_of("00")) == DyadicDistance(1)


def brute_minimum_cover(balls, universe):
    best = len(universe)
    balls = list(balls)
    for r in range(1, len(balls) + 1):
        for combo in itertools.combinations(balls, r):
            union = set().union(*combo)
            if universe <= union:
                return r
    return best


def test_covering_number_full_shift_separates():
    p = full_shift_puzzle(3)
    S = set(p.level(3))
    eps = DyadicDistance(1)
    balls = [set(bowen_ball(p, v, eps, 3)) & S for v in sorted(S)]
    assert covering_number(p, S, eps, 3) == brute_minimum_cover(balls, S) == 8


def test_covering_number_radius_one_is_trivial():
    p = golden_mean_puzzle(3)
    S = set(p.level(3))
    assert covering_number(p, S, DyadicDistance(0), 1) == 1


def test_covering_number_singleton():
    p = golden_mean_puzzle(3)
    assert covering_number(p, [p.level(2)[0]], DyadicDistance(3), 5) == 1


def test_covering_number_exact_beyond_twenty_elements():
    # 64 pieces; at scale 1/2 the n-step key is the first n letters.
    p = full_shift_puzzle(6)
    S = set(p.level(6))
    for n in range(1, 7):
        assert covering_number(p, S, DyadicDistance(1), n) == 2**n
    assert covering_number(p, S, DyadicDistance.zero(), 1) == 64


def test_covering_number_rejects_mixed_orders():
    p = full_shift_puzzle(3)
    with pytest.raises(PuzzleError, match="same-order"):
        covering_number(p, [p.id_of("0"), p.id_of("01")], DyadicDistance(1), 2)


@pytest.mark.parametrize("seed", range(6))
def test_covering_number_matches_brute_cover_on_random_sets(seed):
    rng = random.Random(500 + seed)
    for p in (golden_mean_puzzle(5), full_shift_puzzle(4), periodic_orbit_tower_puzzle([2, 3, 2, 2], 4)):
        for _ in range(4):
            n = rng.randint(1, p.depth)
            level = list(p.level(n))
            S = set(rng.sample(level, min(len(level), rng.randint(1, 9))))
            for eps in (DyadicDistance.zero(), *(DyadicDistance(e) for e in range(n + 1))):
                steps = rng.randint(0, n + 1)
                balls = [set(bowen_ball(p, v, eps, steps)) & S for v in sorted(S)]
                assert covering_number(p, S, eps, steps) == brute_minimum_cover(balls, S)


def test_covering_monotone_in_eps_and_n():
    p = golden_mean_puzzle(4)
    S = set(p.level(4))
    for n1, n2 in ((1, 2), (2, 3)):
        for e_small, e_big in ((DyadicDistance(2), DyadicDistance(1)),):
            small = covering_number(p, S, e_small, n2)
            assert covering_number(p, S, e_big, n2) <= small
            assert covering_number(p, S, e_small, n1) <= small


def test_sequence_entropy_empty_family_is_zero():
    p = full_shift_puzzle(3)
    table = sequence_entropy(p, {}, [DyadicDistance(1)], range(1, 4))
    assert table.estimate == 0.0
    assert all(cell.count == 0 for cell in table.cells)


def test_sequence_entropy_full_levels_tracks_log2():
    # At scale 1/2 the full-shift level sets separate completely, so the
    # covering number is 2^n and every sampled rate sits at log 2.
    p = full_shift_puzzle(6)
    table = sequence_entropy(
        p,
        {n: set(p.level(n)) for n in range(1, 7)},
        [DyadicDistance(1)],
        range(2, 7),
    )
    for cell in table.cells:
        assert cell.count == 2**cell.n
        assert abs(cell.rate - math.log(2)) < 1e-12
    assert abs(table.estimate - math.log(2)) < 1e-12


def test_json_roundtrip_and_root_label_freedom():
    p = golden_mean_puzzle(3)
    q = Puzzle.loads(p.dumps())
    assert q.to_json() == p.to_json()
    handwritten = {
        "depth": 1,
        "levels": [["root"], ["L", "R"]],
        "i": {"L": "root", "R": "root"},
        "f": {"L": "root", "R": "root"},
    }
    r = Puzzle.from_json(handwritten)
    assert r.validate().ok and r.depth == 1


def test_project_to_level():
    p = full_shift_puzzle(4)
    v = p.id_of("0101")
    assert p.label(p.project(v, 1)) == "0"
    assert p.label(p.project(v, 3)) == "010"
    assert p.project(p.id_of("0"), 3) == p.id_of("0")
