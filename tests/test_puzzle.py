import itertools
import math
import random
from fractions import Fraction

import pytest

from qfpuzzles.constructions import (
    full_shift_puzzle,
    full_shift_words,
    golden_mean_puzzle,
    golden_mean_words,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
    words_avoiding,
)
from qfpuzzles.graphs import gamma_n
from qfpuzzles.puzzle import (
    ROOT_LABEL,
    DyadicDistance,
    Puzzle,
    PuzzleError,
    ValidationReport,
    Violation,
    _walk,
    bowen_ball,
    covering_number,
    distance,
    dual,
    from_refinement,
    from_subshift,
    sequence_entropy,
    word_label,
)
from qfpuzzles.reducibility import ReducibilityAnalyzer

from test_fuzz import random_puzzle, with_f_override


def by_kind(report, kind):
    return [v for v in report.violations if v.kind == kind]


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


def reference_from_subshift(words, depth, name="subshift"):
    """The subshift front end that copies the word set and assembles from
    id dictionaries: verbatim, but for its last step, which goes through the
    label constructor, as the assembly now takes id-indexed lists only."""
    if depth < 1:
        raise PuzzleError("depth must be >= 1")
    wordset = set(map(tuple, words))
    letters = set().union(*wordset)
    if not all(isinstance(a, str) for a in letters):
        wordset, letters = {tuple(map(str, w)) for w in wordset}, set(map(str, letters))
    wordset.add(())
    word, i, f, starts = _walk(sorted(letters), depth, wordset)
    missed = wordset.difference(word) if len(word) < len(wordset) else ()
    if faults := [(len(w), w) for w in missed if len(w) <= depth]:
        # all words below the least missed one were reached, so it lacks its prefix or suffix
        least = min(faults)[1]
        kind = "prefix" if least[:-1] not in wordset else "suffix"
        raise PuzzleError(f"word set not {kind}-closed: {word_label(least)!r} lacks its {kind}")
    if starts[-1] == starts[-2]:
        raise PuzzleError(f"no words of length {len(starts) - 2}; depth {depth} unreachable")
    labels = [ROOT_LABEL, *map("".join, word[1:])]
    levels = [labels[a:b] for a, b in zip(starts, starts[1:])]
    i_map, f_map = dict(enumerate(i)), dict(enumerate(f))
    return Puzzle(levels, {labels[v]: labels[t] for v, t in i_map.items() if t is not None},
                  {labels[v]: labels[t] for v, t in f_map.items() if t is not None}, name)


def front_end_outcome(build, make_words, depth):
    """The puzzle's JSON, name and fibres, or the error's type and message."""
    try:
        p = build(make_words(), depth, name="w")
    except (PuzzleError, TypeError) as error:
        return type(error).__name__, str(error)
    return p.to_json(), p.name, [dict(p.fibres(n)) for n in range(1, p.depth + 1)]


def subshift_front_end_cases():
    """(word-set factory, depth) pairs: every container the front end takes,
    closed and non-closed sets, letters that are not strings and labels that collide."""
    gm = words_avoiding("01", [("1", "1")], 5)
    ternary = words_avoiding("012", [("0", "2"), ("1", "1", "1")], 4)
    multi = words_avoiding(["x1", "x2", "y"], [("y", "y")], 3)
    cases = []
    for words in (gm, ternary, multi):
        for depth in (1, 3, 5):
            cases += [
                (lambda w=words: set(w), depth),  # a set of tuples holding the empty word
                (lambda w=words: set(w) - {()}, depth),
                (lambda w=words: frozenset(w), depth),
                (lambda w=words: sorted(w), depth),
                (lambda w=words: (x for x in sorted(w)), depth),
                (lambda w=words: {"".join(x) for x in w}, depth),  # str words, one letter each
                (lambda w=words: {"".join(x) for x in w} | {()}, depth),
            ]
    cases += [
        (lambda: {(), (0,), (1,), (0, 1), (1, 0), (1, 1)}, 2),
        (lambda: [[], [0], [1], [0, 1], [1, 1]], 2),
        (lambda: {(), ("0",), ("1",), ("0", "1"), (0, 1), (1, 1, 2)}, 2),
        (lambda: {(), ("0",), ("0", 5)}, 2),  # a short word with a non-str letter
        (lambda: {(), ("0",), ("0", "0"), ("0", "0", 5)}, 2),  # only beyond the depth
        (lambda: {(), ("0",), ("0", 5)}, 1),
        (lambda: {(), ("0",), ("0", 5)}, 3),
        # non-str letters in longer words only: a closed set once coerced
        (lambda: {(), ("0",), ("5",), ("0", 5), ("5", "0")}, 2),
        (lambda: {(), ("0",), ("1",), ("0", "1"), ("0", 1), ("1", 1)}, 2),  # merges to '01'
        (lambda: [(), ("x",), ("y",), ("x", "y"), ("y", 0.5)], 2),
        (lambda: {(), (0,), ("0",), ("0", 0)}, 2),  # a non-str length-1 word that merges
        (lambda: {(), ("0",), ("1", "0"), ("0", "0", 7)}, 2),  # a fault, non-str beyond depth
        (lambda: {(), ("0",), ("0", "0"), ("1", "0"), ("0", 0, 7)}, 3),  # a fault, non-str within
        (lambda: {(), ("a",), ("b",), ("ab",), ("a", "b")}, 2),  # 'ab' twice
        (lambda: {(), ("a",), ("ε",)}, 1),  # a letter spelling the root label
        (lambda: {"", "0", "00", "10"}, 2),
        (lambda: {"", "1", "10"}, 2),
        (lambda: {"", "0", "10", "01"}, 2),
        (lambda: {(), ("0",), ("0", "0"), ("1", "0")}, 2),
        (lambda: {"", "0"}, 2),
        (lambda: set(), 1),
        (lambda: {()}, 1),
        (lambda: {(), ("0",)}, 0),
    ]
    rng = random.Random(77)
    for _ in range(60):  # random subsets, closed or not
        depth = rng.randint(1, 4)
        chosen = frozenset(w for w in words_avoiding("01", [], depth + 1) if rng.random() < 0.8)
        make = rng.choice([set, frozenset, sorted, lambda w: {"".join(x) for x in w}])
        cases.append((lambda c=chosen, mk=make: mk(c), depth))
    return cases


def test_from_subshift_matches_copying_reference():
    outcomes = set()
    for make_words, depth in subshift_front_end_cases():
        expected = front_end_outcome(reference_from_subshift, make_words, depth)
        assert front_end_outcome(from_subshift, make_words, depth) == expected, (make_words(), depth)
        outcomes.add(expected[1].split()[0] if isinstance(expected[0], str) else "built")
        words = make_words()
        if isinstance(words, set):  # the caller's set is read, never changed
            before = set(words)
            try:
                from_subshift(words, depth)
            except PuzzleError:
                pass
            assert words == before
    assert outcomes == {"built", "word", "no", "duplicate", "depth"}


def test_validate_reports_level_skip():
    p = full_shift_puzzle(3)
    broken = with_f_override(p, {"01": "ε"})
    report = broken.validate()
    assert not report.ok
    assert [v.piece for v in by_kind(report, "level-skip")] == ["01"]


def test_validate_reports_commutation_failure():
    p = full_shift_puzzle(3)
    broken = with_f_override(p, {"010": "00"})  # f(i) = "1" but i(f) = "0"
    report = broken.validate()
    kinds = {v.kind for v in report.violations}
    assert kinds == {"commutation"}
    assert by_kind(report, "commutation")[0].piece == "010"


def test_validate_reports_multi_root():
    doubled = Puzzle([["r1", "r2"], ["x"]], {"x": "r1"}, {"x": "r1"})
    assert by_kind(doubled.validate(), "multi-root")


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



def reference_from_refinement(levels, containing, image_in, name="refinement"):
    """:func:`from_refinement` as first written, with its own checks."""
    if len(levels) < 2:
        raise PuzzleError("depth must be >= 1 (supply at least two partition levels)")
    if len(levels[0]) != 1:
        raise PuzzleError("the coarsest partition must have a single element")
    position = {label: n for n, level in enumerate(levels) for label in level}
    for mapping, which in ((containing, "containing"), (image_in, "image")):
        for src, dst in mapping.items():
            if src not in position or dst not in position:
                raise PuzzleError(f"{which} map mentions unknown element {src!r} -> {dst!r}")
            if position[dst] != position[src] - 1:
                raise PuzzleError(
                    f"{which} assignment skips a level: {src!r} (level {position[src]}) "
                    f"-> {dst!r} (level {position[dst]})"
                )
    for n in range(1, len(levels)):
        for label in levels[n]:
            if label not in containing:
                raise PuzzleError(f"element {label!r} has no containing assignment")
            if label not in image_in:
                raise PuzzleError(f"element {label!r} has no image assignment")
    return Puzzle(levels, dict(containing), dict(image_in), name=name)


def random_refinement(rng):
    """Levels of 1-3 elements, each assignment drawn from the level above;
    now and then a fault: an empty or two-element root level, a single
    level, a duplicate label, a missing, level-skipping or unknown
    assignment, or a map on the root or from an unknown element."""
    roots = rng.choice([0, 2] + [1] * 18)
    levels = [[f"r{k}" for k in range(roots)]]
    levels += [[f"x{n}.{k}" for k in range(rng.randint(1, 3))] for n in range(1, rng.choice([1] + [2, 3, 4] * 4))]
    everything = [label for level in levels for label in level] or ["ghost"]
    if rng.random() < 0.03:
        rng.choice(levels).append(rng.choice(everything))
    containing, image = {}, {}
    for n in range(1, len(levels)):
        for label in levels[n]:
            for mapping in (containing, image):
                r = rng.random()
                if r < 0.015:
                    continue
                if r < 0.03:
                    mapping[label] = rng.choice(everything)
                elif r < 0.04 or not levels[n - 1]:
                    mapping[label] = "ghost"
                else:
                    mapping[label] = rng.choice(levels[n - 1])
    for mapping in (containing, image):
        if rng.random() < 0.02:
            mapping[rng.choice(levels[0] or ["ghost"])] = rng.choice(everything)
        if rng.random() < 0.01:
            mapping["ghost"] = rng.choice(everything)
    return levels, containing, image


def refinement_outcome(fn, levels, containing, image):
    try:
        return fn(levels, containing, image).to_json()
    except PuzzleError:
        return PuzzleError


def test_from_refinement_matches_reference_on_random_inputs():
    rng = random.Random(18)
    accepted = non_commuting = 0
    for _ in range(12000):
        levels, containing, image = random_refinement(rng)
        got = refinement_outcome(from_refinement, levels, containing, image)
        assert got == refinement_outcome(reference_from_refinement, levels, containing, image), (
            levels, containing, image,
        )
        if got is not PuzzleError:
            accepted += 1
            non_commuting += not from_refinement(levels, containing, image).validate().ok
    assert 2000 < accepted < 10000 and non_commuting > 200


@pytest.mark.parametrize("containing, image_in, message", [
    ({"a": "g"}, {"a": "r"}, "containing mentions unknown element 'g'"),
    ({"g": "r", "a": "r"}, {"a": "r"}, "containing mentions unknown element 'g'"),
    ({"a": "r"}, {"a": "g"}, "image_in mentions unknown element 'g'"),
    ({"a": "r"}, {"a": "r", "g": "a"}, "image_in mentions unknown element 'g'"),
])
def test_from_refinement_names_the_mapping_with_an_unknown_element(containing, image_in, message):
    with pytest.raises(PuzzleError) as caught:
        from_refinement([["r"], ["a"]], containing, image_in)
    assert str(caught.value) == message


def test_from_refinement_lists_every_violation():
    with pytest.raises(PuzzleError) as caught:
        from_refinement([["r", "s"], ["a", "b"]], {"a": "r", "r": "s"}, {"a": "r"})
    assert str(caught.value) == (
        "not a partition refinement: multi-root at 'V_0': V_0 has 2 elements, expected 1; "
        "missing-map at 'b': i is undefined; missing-map at 'b': f is undefined; "
        "level-skip at 'r': maps defined on the root"
    )

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


@pytest.mark.parametrize("exponent", [-1, 1.5, 2.0, True, False, "2"])
def test_dyadic_distance_refuses_non_integer_exponents(exponent):
    with pytest.raises(ValueError, match="non-negative integer"):
        DyadicDistance(exponent)


def test_dyadic_distance_takes_integer_exponents_and_zero():
    assert DyadicDistance(0).value() == 1 and DyadicDistance(3).value() == Fraction(1, 8)
    assert DyadicDistance(None).is_zero and DyadicDistance.zero() < DyadicDistance(40)


def test_dyadic_distances_order_by_value():
    values = [DyadicDistance.zero(), *(DyadicDistance(e) for e in range(6))]
    for a, b in itertools.product(values, repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (
            a.value() < b.value(), a.value() <= b.value(), a.value() > b.value(), a.value() >= b.value()), (a, b)
    assert sorted(reversed(values)) == values[:1] + values[:0:-1]  # zero, then 2^-5 up to 2^0


@pytest.mark.parametrize("other", [0.5, Fraction(1, 2), 1, None, "2^-1"])
def test_dyadic_distances_do_not_order_against_other_types(other):
    with pytest.raises(TypeError):
        DyadicDistance(1) < other
    with pytest.raises(TypeError):
        other < DyadicDistance(1)
    with pytest.raises(TypeError):
        DyadicDistance.zero() >= other
    assert DyadicDistance(1) != other


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


@pytest.mark.parametrize("n_range", [[0], [-1], [2, 0, 3]])
def test_sequence_entropy_rejects_n_below_one(n_range):
    p = full_shift_puzzle(3)
    family = {n: set(p.level(n)) for n in range(1, 4)}
    with pytest.raises(PuzzleError, match="n >= 1"):
        sequence_entropy(p, family, [DyadicDistance(1)], n_range)


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


# -- the id-indexed tables against the pre-table routines ----------------------


def reference_validate(p: Puzzle) -> ValidationReport:
    """``Puzzle.validate`` as it was before the id tables: ``i`` and ``f``
    as dicts on ids (read back from :meth:`Puzzle.to_json`), every level
    test through :meth:`Puzzle.order`."""
    data = p.to_json()
    i_map, f_map = ({p.id_of(s): p.id_of(t) for s, t in data[key].items()} for key in "if")
    out: list[Violation] = []
    if len(p.levels[0]) != 1:
        out.append(
            Violation("multi-root", "V_0", f"V_0 has {len(p.levels[0])} elements, expected 1")
        )
    for n in range(1, p.depth + 1):
        for piece in p.levels[n]:
            for which, mapping in (("i", i_map), ("f", f_map)):
                if piece not in mapping:
                    out.append(Violation("missing-map", p.label(piece), f"{which} is undefined"))
                    continue
                tgt = mapping[piece]
                if p.order(tgt) != n - 1:
                    out.append(
                        Violation(
                            "level-skip",
                            p.label(piece),
                            f"{which} maps order {n} to order {p.order(tgt)}",
                        )
                    )
    for piece in sorted(i_map):
        if p.order(piece) < 2 or piece not in f_map:
            continue
        fi = i_map.get(f_map[piece])
        if_ = f_map.get(i_map[piece])
        if fi is None or if_ is None:
            continue
        if fi != if_:
            out.append(
                Violation(
                    "commutation",
                    p.label(piece),
                    f"i(f(v))={p.label(fi)!r} != f(i(v))={p.label(if_)!r}",
                )
            )
    for piece in p.pieces():
        if p.order(piece) == 0:
            if piece in i_map or piece in f_map:
                out.append(Violation("level-skip", p.label(piece), "maps defined on the root"))
    return ValidationReport(tuple(out))


def reference_fibres(p: Puzzle, n: int) -> dict[tuple[int, int], list[int]]:
    """The per-call regrouping that :meth:`Puzzle.fibres` replaced."""
    out: dict[tuple[int, int], list[int]] = {}
    for v in p.levels[n]:
        out.setdefault((p.i(v), p.f(v)), []).append(v)
    return out


CONSTRUCTIONS = [
    full_shift_puzzle(5),
    full_shift_puzzle(3, alphabet="012"),
    golden_mean_puzzle(6),
    from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6),
    from_subshift(words_avoiding("01", [("1", "0", "1"), ("0", "0", "0")], 6), 6),
    periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5),
    layered_full_shifts_puzzle(3, 5),
    undetermined_puzzle(),
]


def broken_puzzles() -> dict[str, Puzzle]:
    """Variants of ``full_shift_puzzle(3)``, one or more per way to fail
    :meth:`Puzzle.validate`."""
    base = full_shift_puzzle(3).to_json()
    levels, i_map, f_map = base["levels"], base["i"], base["f"]
    deep = full_shift_puzzle(4).to_json()

    def without(mapping, label):
        return {k: v for k, v in mapping.items() if k != label}

    return {
        "missing i": Puzzle(levels, without(i_map, "01"), f_map),
        "missing f": Puzzle(levels, i_map, without(f_map, "10")),
        "missing both": Puzzle(levels, without(i_map, "110"), without(f_map, "110")),
        "skip through i": Puzzle(levels, {**i_map, "010": "0"}, f_map),
        "skip through f": Puzzle(levels, i_map, {**f_map, "010": "ε"}),
        "skip upward": Puzzle(levels, {**i_map, "0": "00"}, {**f_map, "1": "11"}),
        "commutation": Puzzle(levels, i_map, {**f_map, "010": "00"}),
        "commutation twice": Puzzle(levels, i_map, {**f_map, "010": "00", "110": "00"}),
        "multi-root": Puzzle([["ε", "δ"], *levels[1:]], i_map, f_map),
        "root i": Puzzle(levels, {**i_map, "ε": "ε"}, f_map),
        "root f": Puzzle(levels, i_map, {**f_map, "ε": "0"}),
        # level checks are reported before commutation, whatever the order
        "commutation below missing": Puzzle(
            deep["levels"], without(deep["i"], "0110"), {**deep["f"], "010": "00"}
        ),
    }


def test_broken_puzzles_reach_every_violation_path():
    swap = "i(f(v))={!r} != f(i(v))={!r}".format
    expected = {
        "missing i": [("missing-map", "01", "i is undefined")],
        "missing f": [("missing-map", "10", "f is undefined")],
        "missing both": [
            ("missing-map", "110", "i is undefined"),
            ("missing-map", "110", "f is undefined"),
        ],
        "skip through i": [
            ("level-skip", "010", "i maps order 3 to order 1"),
            ("commutation", "010", swap("1", "ε")),
        ],
        "skip through f": [("level-skip", "010", "f maps order 3 to order 0")],
        "skip upward": [
            ("level-skip", "0", "i maps order 1 to order 2"),
            ("level-skip", "1", "f maps order 1 to order 2"),
            ("commutation", "00", swap("00", "ε")),
            ("commutation", "10", swap("00", "11")),
            ("commutation", "11", swap("ε", "11")),
        ],
        "commutation": [("commutation", "010", swap("0", "1"))],
        "commutation twice": [
            ("commutation", "010", swap("0", "1")),
            ("commutation", "110", swap("0", "1")),
        ],
        "multi-root": [("multi-root", "V_0", "V_0 has 2 elements, expected 1")],
        "root i": [("level-skip", "ε", "maps defined on the root")],
        "root f": [("level-skip", "ε", "maps defined on the root")],
        "commutation below missing": [
            ("missing-map", "0110", "i is undefined"),
            ("commutation", "010", swap("0", "1")),
            ("commutation", "0100", swap("10", "00")),
            ("commutation", "0101", swap("10", "00")),
        ],
    }
    broken = broken_puzzles()
    assert list(broken) == list(expected)
    for name, p in broken.items():
        assert [(v.kind, v.piece, v.detail) for v in p.validate().violations] == expected[name], name


def test_validate_matches_reference_on_broken_puzzles():
    for name, p in broken_puzzles().items():
        assert p.validate() == reference_validate(p), name
        try:
            q = dual(p)
        except PuzzleError:
            continue  # the dual needs i and f on every piece of positive order
        assert q.validate() == reference_validate(q), name


def test_validate_matches_reference_with_an_empty_middle_level():
    # an empty level shifts the id ranges: nothing lands one order down past it
    cases = [
        Puzzle([["ε"], ["0", "1"], [], ["x", "y"]], {"0": "ε", "1": "ε", "x": "0", "y": "1"},
               {"0": "ε", "1": "ε", "x": "1", "y": "0"}),
        Puzzle([["ε"], [], ["a"]], {"a": "ε"}, {"a": "ε"}),
        Puzzle([["ε"], ["0"], [], ["x"], ["y"]], {"0": "ε", "y": "x"}, {"0": "ε", "x": "0", "y": "x"}),
        Puzzle([["ε", "δ"], [], ["a"], ["b"]], {"a": "δ", "b": "a"}, {"a": "ε", "b": "a"}),
        Puzzle([["ε"], ["0"], []], {"0": "ε"}, {"0": "ε"}),
    ]
    for p in cases:
        assert p.validate() == reference_validate(p)
        assert not p.validate().ok or p is cases[-1]


def test_validate_matches_reference_with_two_roots_and_maps_on_them():
    # the pieces of order 2 start after both roots: an order-1 piece is never
    # checked for commutation, though i and f differ on the root it maps to
    p = Puzzle([["ε", "δ"], ["a"], ["b"]], {"a": "δ", "b": "a", "δ": "ε"}, {"a": "δ", "b": "a", "δ": "δ"})
    assert p.validate() == reference_validate(p)
    assert [v.kind for v in p.validate().violations] == ["multi-root", "level-skip"]


def test_validate_matches_reference_with_violations_at_orders_two_and_up():
    # random fuzz puzzles with one to three maps of order >= 2 redirected to any
    # piece or removed: every report names only pieces of order >= 2
    rng = random.Random(6200)
    kinds = set()
    for _ in range(150):
        data = random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6)).to_json()
        labels = [x for level in data["levels"] for x in level]
        deep = [x for level in data["levels"][2:] for x in level]
        for piece in rng.sample(deep, min(len(deep), rng.randint(1, 3))):
            which = data[rng.choice("if")]
            if rng.random() < 0.2:
                del which[piece]
            else:
                which[piece] = rng.choice(labels)
        p = Puzzle(data["levels"], data["i"], data["f"])
        report = p.validate()
        assert report == reference_validate(p)
        assert all(p.order(p.id_of(v.piece)) >= 2 for v in report.violations)
        kinds.update(v.kind for v in report.violations)
    assert kinds == {"missing-map", "level-skip", "commutation"}


def test_validate_matches_reference_on_valid_puzzles():
    rng = random.Random(6000)
    fuzz = [random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6)) for _ in range(60)]
    for p in CONSTRUCTIONS + fuzz:
        for q in (p, dual(p)):
            assert q.validate() == reference_validate(q) == ValidationReport(())


def test_fibres_and_children_match_regrouping():
    rng = random.Random(6100)
    fuzz = [random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6)) for _ in range(40)]
    valid = [q for p in CONSTRUCTIONS + fuzz for q in (p, dual(p))]
    for q in valid:
        for n in range(1, q.depth + 1):
            fibres = q.fibres(n)
            assert {key: list(group) for key, group in fibres.items()} == reference_fibres(q, n)
            assert list(fibres) == list(reference_fibres(q, n))  # keys in first-piece order
            assert all(type(group) is tuple for group in fibres.values())
            assert q.fibres(n) is fibres  # built on the first call, then kept
    for q in valid + list(broken_puzzles().values()):
        parent_of = q.to_json()["i"]
        for v in q.pieces():
            kids = tuple(w for w in q.pieces() if parent_of.get(q.label(w)) == q.label(v))
            assert q.i_preimages(v) == kids


def test_rival_check_matches_the_fibres():
    # Puzzle._has_rivals reads int keys and builds no fibre; the analyzer builds
    # the fibres of exactly the levels with rivals
    rng = random.Random(6200)
    fuzz = [random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6)) for _ in range(40)]
    seen = set()
    for p in CONSTRUCTIONS + fuzz:
        for q in (p, dual(p)):
            fresh, built = Puzzle.loads(q.dumps()), Puzzle.loads(q.dumps())
            ReducibilityAnalyzer(built)
            for n in range(1, q.depth + 1):
                rivals = any(len(group) > 1 for group in q.fibres(n).values())
                assert fresh._has_rivals(n) is rivals
                assert fresh._fibres[n] is None
                assert (built._fibres[n] is not None) is rivals
                seen.add(rivals)
    assert seen == {True, False}


def test_fibres_are_read_only():
    fibres = full_shift_puzzle(3).fibres(2)
    with pytest.raises(TypeError):
        fibres[(0, 0)] = (1,)


@pytest.mark.parametrize(
    "name, n, message",
    [
        ("missing i", 2, "i undefined on '01'"),
        ("missing f", 2, "f undefined on '10'"),
        ("missing both", 3, "i undefined on '110'"),
    ],
)
def test_fibres_and_gamma_raise_on_undefined_maps(name, n, message):
    p = broken_puzzles()[name]
    for _ in range(2):  # raised on every call: the error is never kept
        with pytest.raises(PuzzleError, match=f"^{message}$"):
            p.fibres(n)
    with pytest.raises(PuzzleError, match=f"^{message}$"):
        gamma_n(p, n - 1)
    assert {key: list(group) for key, group in p.fibres(n - 1).items()} == reference_fibres(p, n - 1)


def test_root_level_fibres_raise_like_the_maps():
    p = full_shift_puzzle(3)
    with pytest.raises(PuzzleError, match="^i undefined on 'ε'$"):
        p.fibres(0)
    for n in (4, -1, -4):  # a negative level is no index from the end
        with pytest.raises(IndexError, match=f"^no level {n} in a puzzle of depth 3$"):
            p.fibres(n)
