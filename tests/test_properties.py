"""Randomized and exhaustive invariant checks across modules."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qfpuzzles

from qfpuzzles.constructions import (
    full_shift_puzzle,
    full_shift_words,
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    words_avoiding,
)
from qfpuzzles.diagram import build_diagram
from qfpuzzles.graphs import loop_graph, periodic_point_counts, sft_graph, two_hub_graph
from qfpuzzles.puzzle import (
    ROOT_LABEL,
    DyadicDistance,
    Puzzle,
    PuzzleError,
    covering_number,
    distance,
    dual,
    from_subshift,
)
from qfpuzzles.reducibility import ReducibilityAnalyzer
from qfpuzzles.series import PowerSeries
from qfpuzzles.zeta import loop_graph_zeta, semi_local_zeta_brute, semi_local_zeta_det


def random_factor_language(rng, depth):
    """A random prefix/suffix-closed word set via forbidden factors."""
    alphabet = "01" if rng.random() < 0.7 else "012"
    n_forbidden = rng.randint(0, 2)
    forbidden = set()
    while len(forbidden) < n_forbidden:
        length = rng.randint(2, 3)
        forbidden.add(tuple(rng.choice(alphabet) for _ in range(length)))
    words = words_avoiding(alphabet, forbidden, depth)
    lengths = {len(w) for w in words}
    if max(lengths) < depth:
        return None  # language died before the requested depth
    return words


def reference_words_avoiding(alphabet, forbidden, depth):
    """``words_avoiding`` as it was: every factor of every extended word is tested."""
    bad = [tuple(f) for f in forbidden]

    def ok(w):
        return not any(
            w[k : k + len(b)] == b for b in bad for k in range(len(w) - len(b) + 1)
        )

    words = {()}
    frontier = [()]
    for _ in range(depth):
        frontier = [w + (a,) for w in frontier for a in alphabet if ok(w + (a,))]
        words.update(frontier)
    return words


def test_words_avoiding_matches_full_factor_scan():
    rng = random.Random(11)
    for _ in range(300):
        alphabet = "01" if rng.random() < 0.6 else "012"
        # the empty factor forbids every non-empty word; factors longer
        # than a word cannot occur in it
        forbidden = [
            tuple(rng.choice(alphabet) for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4, 7))))
            for _ in range(rng.randint(0, 3))
        ]
        depth = rng.randint(0, 6)
        assert words_avoiding(alphabet, forbidden, depth) == reference_words_avoiding(
            alphabet, forbidden, depth
        ), (alphabet, forbidden, depth)


@pytest.mark.parametrize(
    "alphabet", ["0101", ("b", "a", "10", "2"), (1, 0)], ids=["duplicated", "unsorted", "not-str"]
)
def test_words_avoiding_alphabets_match_full_factor_scan(alphabet):
    rng = random.Random(13)
    letters = list(dict.fromkeys(alphabet))
    cases = [[], [()], [(), (letters[0],)], [(letters[-1],)]] + [
        [tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
        for _ in range(20)
    ]
    for forbidden in cases:
        for depth in range(7):
            words = words_avoiding(alphabet, forbidden, depth)
            assert words == reference_words_avoiding(alphabet, forbidden, depth), (forbidden, depth)
            assert all(a in letters for w in words for a in w)


def test_random_subshift_puzzles_validate():
    rng = random.Random(41)
    built = 0
    while built < 20:
        words = random_factor_language(rng, 4)
        if words is None:
            continue
        p = from_subshift(words, 4)
        assert p.validate().ok
        built += 1


def reference_from_subshift(words, depth, name="subshift"):
    """``from_subshift`` as first written: labels joined for every map
    entry, then the label constructor ``Puzzle(levels, i_map, f_map)``."""

    def as_word(w):
        return tuple(w) if isinstance(w, str) else tuple(str(s) for s in w)

    def label(w):
        return "".join(w) if w else ROOT_LABEL

    if depth < 1:
        raise PuzzleError("depth must be >= 1")
    wordset = {as_word(w) for w in words} | {()}
    by_len = {}
    for w in wordset:
        by_len.setdefault(len(w), []).append(w)
    for n in range(1, depth + 1):
        for w in by_len.get(n, []):
            if w[:-1] not in wordset:
                raise PuzzleError(f"word set not prefix-closed: {label(w)!r} lacks its prefix")
            if w[1:] not in wordset:
                raise PuzzleError(f"word set not suffix-closed: {label(w)!r} lacks its suffix")
    levels = [[ROOT_LABEL]]
    for n in range(1, depth + 1):
        level = sorted(by_len.get(n, []))
        if not level:
            raise PuzzleError(f"no words of length {n}; depth {depth} unreachable")
        levels.append([label(w) for w in level])
    i_map = {label(w): label(w[:-1]) for n in range(1, depth + 1) for w in by_len.get(n, [])}
    f_map = {label(w): label(w[1:]) for n in range(1, depth + 1) for w in by_len.get(n, [])}
    return Puzzle(levels, i_map, f_map, name=name)


def assert_same_puzzle(p, q):
    assert (p.name, p.depth, p.levels) == (q.name, q.depth, q.levels)
    assert [p.label(v) for v in p.pieces()] == [q.label(v) for v in q.pieces()]
    assert p.to_json() == q.to_json()
    for v in p.pieces():
        assert p.i_preimages(v) == q.i_preimages(v)
        assert p.id_of(p.label(v)) == v
        if p.order(v):
            assert (p.i(v), p.f(v)) == (q.i(v), q.f(v))
    for n in range(1, p.depth + 1):
        assert dict(p.fibres(n)) == dict(q.fibres(n))


def test_from_subshift_matches_label_route():
    rng = random.Random(43)
    built = 0
    while built < 40:
        depth = rng.randint(1, 6)
        words = random_factor_language(rng, depth)
        if words is None:
            continue
        # words beyond the depth are ignored; letters are coerced with str
        words = set(words) | {w + w for w in words if len(w) == depth}
        assert_same_puzzle(from_subshift(words, depth, "w"), reference_from_subshift(words, depth, "w"))
        built += 1
    ints = [(), (0,), (1,), (0, 1), (1, 0), (1, 1), (1, 0, 1)]
    assert_same_puzzle(from_subshift(ints, 2), reference_from_subshift(ints, 2))
    assert_same_puzzle(from_subshift(["", "a", "aa"], 2), reference_from_subshift(["", "a", "aa"], 2))


def assert_same_front_end(alphabet, forbidden, depth, name="subshift"):
    """``from_subshift(words_avoiding(...))`` against the two reference routes."""
    assert_same_puzzle(
        from_subshift(words_avoiding(alphabet, forbidden, depth), depth, name),
        reference_from_subshift(reference_words_avoiding(alphabet, forbidden, depth), depth, name),
    )


BINARY_FACTORS = [w for n in (2, 3, 4) for w in itertools.product("01", repeat=n)]


def test_front_end_matches_references_over_the_shift_universe():
    """Every binary set of one or two forbidden words of length 2-4, at depth 8."""
    for forbidden in [(w,) for w in BINARY_FACTORS] + list(itertools.combinations(BINARY_FACTORS, 2)):
        assert_same_front_end("01", forbidden, 8)


def test_front_end_matches_references_over_three_letters():
    pairs = list(itertools.product("012", repeat=2))
    for forbidden in [[]] + [[w] for w in pairs] + [list(ws) for ws in itertools.combinations(pairs, 2)]:
        assert_same_front_end("012", forbidden, 5)
    assert_same_front_end("012", [("0", "1", "2"), ("2", "2")], 7)


@pytest.mark.parametrize(
    "build, alphabet, forbidden, depth, name",
    [
        (lambda: full_shift_puzzle(6), "01", [], 6, "full-shift"),
        (lambda: golden_mean_puzzle(8), "01", [("1", "1")], 8, "golden-mean"),
        (lambda: full_shift_puzzle(5, "012"), "012", [], 5, "full-shift"),
    ],
    ids=["full-shift", "golden-mean", "full-shift-012"],
)
def test_constructions_match_references(build, alphabet, forbidden, depth, name):
    expected = reference_from_subshift(reference_words_avoiding(alphabet, forbidden, depth), depth, name)
    assert_same_puzzle(build(), expected)


LABEL_ROUTE = (from_subshift, reference_from_subshift)


@pytest.mark.parametrize(
    "words, depth, message, builds",
    [
        ({"", "0", "00", "10"}, 2, "word set not prefix-closed: '10' lacks its prefix", LABEL_ROUTE),
        ({"", "1", "10"}, 2, "word set not suffix-closed: '10' lacks its suffix", LABEL_ROUTE),
        ({"", "0"}, 2, "no words of length 2; depth 2 unreachable", LABEL_ROUTE),
        (["", "0", "1", ("01",), ("0", "1")], 2, "duplicate label '01'", LABEL_ROUTE),
        (["", "0", ("ε",)], 1, "duplicate label 'ε'", LABEL_ROUTE),
        (["", "0"], 0, "depth must be >= 1", LABEL_ROUTE),
        # two offenders: the label route reports whichever its set order meets first
        ({"", "0", "10", "01"}, 2, "word set not suffix-closed: '01' lacks its suffix", (from_subshift,)),
    ],
    ids=["prefix", "suffix", "empty-level", "duplicate", "duplicate-root", "depth", "two-offenders"],
)
def test_from_subshift_errors_match_label_route(words, depth, message, builds):
    for build in builds:
        with pytest.raises(PuzzleError) as info:
            build(words, depth)
        assert str(info.value) == message


def closure_error_by_rule(words, depth):
    """The closure error ``from_subshift`` must raise, straight from its
    rule: of the words up to ``depth`` lacking their prefix or suffix in the
    set, the least word of the lowest level, by its prefix if it lacks both."""
    wordset = {tuple(map(str, w)) for w in words} | {()}
    faults = sorted(
        (len(w), w) for w in wordset
        if 0 < len(w) <= depth and (w[:-1] not in wordset or w[1:] not in wordset)
    )
    if not faults:
        return None
    w = faults[0][1]
    kind = "prefix" if w[:-1] not in wordset else "suffix"
    return f"word set not {kind}-closed: {''.join(w)!r} lacks its {kind}"


def test_from_subshift_reports_least_fault_of_lowest_level():
    rng = random.Random(47)
    seen = set()
    for _ in range(300):
        depth = rng.randint(1, 5)
        words = random_factor_language(rng, depth)
        if words is None:
            continue
        words = set(words)
        for _ in range(rng.randint(1, 4)):  # drop and add words to break closure
            if rng.random() < 0.6 and len(words) > 1:
                words.discard(rng.choice(sorted(w for w in words if w)))
            else:
                words.add(tuple(rng.choice("012") for _ in range(rng.randint(1, depth + 1))))
        expected = closure_error_by_rule(words, depth)
        if expected is None:
            continue
        with pytest.raises(PuzzleError) as info:
            from_subshift(words, depth)
        assert str(info.value) == expected, (sorted(words), depth)
        seen.add(expected.split(":")[0])
    assert seen == {"word set not prefix-closed", "word set not suffix-closed"}


def test_from_subshift_error_does_not_depend_on_hash_seed():
    script = (
        "from qfpuzzles.puzzle import PuzzleError, from_subshift\n"
        "try:\n"
        "    from_subshift({'', '0', '10', '01'}, 2)\n"
        "except PuzzleError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(qfpuzzles.__file__).resolve().parents[1])
    messages = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        messages.add(run.stdout.strip())
    assert messages == {"word set not suffix-closed: '01' lacks its suffix"}


def test_dual_involution_across_examples():
    for p in (
        full_shift_puzzle(4),
        golden_mean_puzzle(4),
        layered_full_shifts_puzzle(2, 4),
        periodic_orbit_tower_puzzle([2, 3, 2], 3),
    ):
        assert dual(dual(p)).to_json() == p.to_json()


def test_distance_contraction_under_both_maps():
    # d(i v, i w) <= 2 d(v, w) and likewise for f, exhaustively at depth 5.
    for p in (full_shift_puzzle(5), golden_mean_puzzle(5)):
        pieces = [v for v in p.pieces() if p.order(v) >= 1]
        for v in pieces:
            for w in pieces:
                bound = 2 * distance(p, v, w).value()
                assert distance(p, p.i(v), p.i(w)).value() <= bound
                assert distance(p, p.f(v), p.f(w)).value() <= bound


def test_covering_number_monotone_random():
    rng = random.Random(43)
    p = golden_mean_puzzle(5)
    for _ in range(10):
        n = rng.randint(2, 5)
        level = list(p.level(n))
        S = {v for v in level if rng.random() < 0.7} or set(level[:1])
        for e in (0, 1, 2):
            wide = covering_number(p, S, DyadicDistance(e), n)
            tight = covering_number(p, S, DyadicDistance(e + 1), n)
            assert wide <= tight
        shorter = covering_number(p, S, DyadicDistance(1), max(1, n - 1))
        longer = covering_number(p, S, DyadicDistance(1), n)
        assert shorter <= longer


def test_diagram_pair_has_single_arrow():
    for p in (
        full_shift_puzzle(5),
        golden_mean_puzzle(5),
        from_subshift(words_avoiding("01", [("1", "1", "1")], 5), 5),
    ):
        d = build_diagram(p, 3)
        pairs = [(a.source, a.target) for a in d.arrows]
        assert len(pairs) == len(set(pairs))


def all_example_puzzles(depth=4):
    return [
        full_shift_puzzle(depth),
        golden_mean_puzzle(depth),
        from_subshift(words_avoiding("01", [("1", "1", "1")], depth), depth),
        from_subshift(words_avoiding("012", [("0", "0")], depth), depth),
        layered_full_shifts_puzzle(2, depth),
        periodic_orbit_tower_puzzle([2, 3, 2, 2][:depth], depth),
    ]


def test_reduction_uniqueness_shadow_exhaustive():
    # Equal i-parents plus a common reduction target force equality,
    # including equal chain lengths; brute force over all pairs.
    for p in all_example_puzzles(4):
        an = ReducibilityAnalyzer(p)
        for n in range(1, p.depth + 1):
            per_parent = {}
            for v in p.level(n):
                per_parent.setdefault(p.i(v), []).append(v)
            for group in per_parent.values():
                seen = {}
                for u in group:
                    chain = an.reduction_chain(u)
                    pieces = chain.pieces
                    if chain.kind == "unknown":
                        pieces = pieces[:-1]
                    for k, piece in enumerate(pieces):
                        if k == 0:
                            continue
                        if piece in seen:
                            other, l = seen[piece]
                            assert other == u and l == k, p.name
                        else:
                            seen[piece] = (u, k)


def test_irreducible_parents_shadow_exhaustive():
    for p in all_example_puzzles(4):
        an = ReducibilityAnalyzer(p)
        for n in range(2, p.depth):
            for v in an.irreducible_pieces(n).certified:
                assert an.verdict(p.i(v)).is_irreducible


def test_subshift_r2_only_at_order_one():
    rng = random.Random(47)
    built = 0
    while built < 10:
        words = random_factor_language(rng, 4)
        if words is None:
            continue
        p = from_subshift(words, 4)
        built += 1
        for n in range(2, 5):
            seen = {}
            for v in p.level(n):
                key = (p.i(v), p.f(v))
                assert key not in seen, (p.name, p.label(v))
                seen[key] = v


def test_two_hub_first_return_identity_many_instances():
    rng = random.Random(53)
    for _ in range(50):
        a = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        b = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        s = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        t = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        # construction asserts the identity internally
        two_hub_graph(a, b, s, t, 12)


def test_loop_graph_zeta_matches_periodic_counts():
    rng = random.Random(59)
    for _ in range(12):
        f = [rng.randint(0, 2) for _ in range(rng.randint(1, 5))]
        if not any(f):
            continue
        g = loop_graph(f)
        K = len(f)
        series = loop_graph_zeta(PowerSeries.from_counts(f, order=K))
        counts = [series[n] for n in range(1, K + 1)]
        from qfpuzzles.graphs import based_loop_counts

        assert counts == [Fraction(c) for c in based_loop_counts(g, "a", K)]


def test_det_brute_agree_on_random_multigraphs():
    rng = random.Random(61)
    for _ in range(12):
        d = rng.randint(2, 5)
        matrix = [
            [rng.choice((0, 0, 1, 1, 2)) for _ in range(d)] for _ in range(d)
        ]
        g = sft_graph(matrix)
        F = [v for v in g.vertices if rng.random() < 0.5]
        assert semi_local_zeta_det(g, F, 7) == semi_local_zeta_brute(g, F, 7)


def test_zeta_log_recovers_counts_on_random_graphs():
    rng = random.Random(67)
    from qfpuzzles.zeta import counts_from_zeta, zeta_from_counts

    for _ in range(10):
        counts = [rng.randint(0, 50) for _ in range(9)]
        assert counts_from_zeta(zeta_from_counts(counts)) == counts


def test_random_sft_diagrams_present_their_shifts():
    # For random factor-avoiding languages: once the irreducible pieces
    # stop appearing (order <= n0), the diagram's closed-path counts must
    # match every deeper level transition graph.
    rng = random.Random(73)
    from qfpuzzles.graphs import gamma_n

    checked = 0
    while checked < 12:
        words = random_factor_language(rng, 6)
        if words is None:
            continue
        p = from_subshift(words, 6)
        an = ReducibilityAnalyzer(p)
        by_level = [len(an.irreducible_pieces(n).certified) for n in range(1, 5)]
        if not any(by_level):
            continue
        n0 = max(n for n, c in zip(range(1, 5), by_level) if c)
        if n0 + 1 > p.depth - 2:
            continue
        d = build_diagram(p, n0 + 1, an)
        if not d.is_complete:
            continue
        diagram_counts = periodic_point_counts(d.to_graph(), 7)
        for N in range(n0 + 1, p.depth - 1):
            level_counts = periodic_point_counts(gamma_n(p, N), 7)
            assert diagram_counts == level_counts
        checked += 1


def test_puzzle_zeta_enumeration_matches_dp_counts():
    from qfpuzzles.graphs import gamma_n
    from qfpuzzles.zeta import puzzle_zeta_n

    p = periodic_orbit_tower_puzzle([2, 3, 2, 2], 4)
    res = puzzle_zeta_n(p, 1, 4, 3)
    assert list(res.counts_total) == periodic_point_counts(gamma_n(p, 1), 4)


def test_puzzle_zeta_equals_diagram_semilocal_zeta():
    # End to end: the certified level-N zeta of a subshift puzzle equals
    # the semi-local zeta of its Markov diagram at the full vertex set.
    from qfpuzzles.graphs import gamma_n
    from qfpuzzles.zeta import puzzle_zeta_n, semi_local_zeta_det

    cases = [
        (full_shift_puzzle(6), 1, 1),
        (golden_mean_puzzle(6), 1, 2),
        (from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6, name="no111"), 2, 3),
    ]
    for p, n0, N in cases:
        d = build_diagram(p, n0 + 1)
        assert d.is_complete
        graph = d.to_graph()
        res = puzzle_zeta_n(p, N, 8, N + 2)
        assert res.counts_uncertified == (0,) * 8
        assert res.zeta == semi_local_zeta_det(graph, graph.vertices, 8)


def test_golden_mean_diagram_local_zeta_at_constraint_vertex():
    # First returns to the vertex "1" of the diagram have one loop of
    # every length >= 2, so the local zeta there is (1-z)/(1-z-z^2).
    from qfpuzzles.zeta import semi_local_zeta_det

    p = golden_mean_puzzle(6)
    graph = build_diagram(p, 2).to_graph()
    K = 10
    expected = PowerSeries([1, -1], order=K) * PowerSeries([1, -1, -1], order=K).reciprocal()
    assert semi_local_zeta_det(graph, ["1"], K) == expected


def test_periodic_counts_additive_over_disjoint_union():
    g1 = sft_graph([[1, 1], [1, 0]])
    g2 = loop_graph([0, 2]).materialize()
    from qfpuzzles.graphs import Edge, GraphTruncation

    merged = GraphTruncation(
        tuple(f"L{v}" for v in g1.vertices) + tuple(f"R{v}" for v in g2.vertices),
        tuple(Edge(f"L{e.src}", f"L{e.dst}", e.length, e.multiplicity) for e in g1.edges)
        + tuple(Edge(f"R{e.src}", f"R{e.dst}", e.length, e.multiplicity) for e in g2.edges),
    )
    lhs = periodic_point_counts(merged, 6)
    rhs = [
        x + y
        for x, y in zip(periodic_point_counts(g1, 6), periodic_point_counts(g2, 6))
    ]
    assert lhs == rhs
