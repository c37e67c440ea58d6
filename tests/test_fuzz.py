"""Randomized structural fuzzing over abstract puzzles.

Generates random valid puzzles directly from the axioms (not via word
languages): a random parent tree defines ``i``; ``f`` is then chosen
level by level among the commutation-compatible targets.  Everything
the analyzer claims about such puzzles must hold without exception.
"""

import random

import pytest

from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
    words_avoiding,
)
from qfpuzzles.diagram import DiagramError, build_diagram, path_to_piece, scc_decomposition
from qfpuzzles.graphs import Edge, gamma_n
from qfpuzzles.puzzle import Puzzle, PuzzleError, distance, dual, from_subshift
from qfpuzzles.reducibility import ReducibilityAnalyzer, ReducibilityVerdict, Status
from qfpuzzles.zeta import (
    PeriodicClass,
    PuzzleZetaResult,
    _periodic_words,
    puzzle_zeta_n,
    zeta_from_counts,
)


def random_puzzle(rng: random.Random, depth: int, max_width: int = 5) -> Puzzle:
    """A uniform-ish random puzzle: surjective random ``i`` (every piece

    gets at least one child), ``f`` sampled among commutation-compatible
    images.  Retries internally until f-assignment succeeds everywhere.
    """
    while True:
        levels = [["r"]]
        for n in range(1, depth + 1):
            width = rng.randint(max(1, len(levels[-1])), max_width + n)
            levels.append([f"p{n}.{k}" for k in range(width)])
        i_map: dict[str, str] = {}
        for n in range(1, depth + 1):
            parents = levels[n - 1]
            children = list(levels[n])
            rng.shuffle(children)
            # each parent gets one child (surjectivity), rest land anywhere
            for parent, child in zip(parents, children):
                i_map[child] = parent
            for child in children[len(parents):]:
                i_map[child] = rng.choice(parents)

        preimages: dict[str, list[str]] = {}
        for child, parent in i_map.items():
            preimages.setdefault(parent, []).append(child)

        f_map: dict[str, str] = {}
        ok = True
        for label in levels[1]:
            f_map[label] = "r"
        for n in range(2, depth + 1):
            for label in levels[n]:
                # commutation: f(v) must be an i-child of f(i(v))
                pool = preimages.get(f_map[i_map[label]], [])
                pool = [q for q in pool if q in set(levels[n - 1])]
                if not pool:
                    ok = False
                    break
                f_map[label] = rng.choice(sorted(pool))
            if not ok:
                break
        if not ok:
            continue
        p = Puzzle(levels, i_map, f_map, name="fuzz")
        assert p.validate().ok
        return p


@pytest.mark.parametrize("seed", range(30))
def test_random_puzzles_survive_full_analysis(seed):
    rng = random.Random(1000 + seed)
    p = random_puzzle(rng, rng.randint(2, 4))
    an = ReducibilityAnalyzer(p)

    # verdict partition and propagation of irreducibility to parents
    for n in range(1, p.depth + 1):
        level = an.irreducible_pieces(n)
        statuses = {v: an.verdict(v).status for v in p.level(n)}
        reducible = [v for v, s in statuses.items() if s is Status.REDUCIBLE]
        assert sorted(level.certified + level.unknown + tuple(reducible)) == sorted(
            p.level(n)
        )
    for n in range(2, p.depth):
        for v in an.irreducible_pieces(n).certified:
            assert an.verdict(p.i(v)).is_irreducible

    # reduction chains from equal parents never collide (uniqueness)
    for n in range(1, p.depth + 1):
        per_parent = {}
        for v in p.level(n):
            per_parent.setdefault(p.i(v), []).append(v)
        for group in per_parent.values():
            seen = {}
            for u in group:
                chain = an.reduction_chain(u)
                pieces = chain.pieces if chain.kind != "unknown" else chain.pieces[:-1]
                for k, piece in enumerate(pieces):
                    if k == 0:
                        continue
                    assert seen.setdefault(piece, (u, k)) == (u, k)

    # the diagram always assembles; arrows are unique per pair
    if p.depth >= 2:
        d = build_diagram(p, p.depth - 1, an)
        pairs = [(a.source, a.target) for a in d.arrows]
        assert len(pairs) == len(set(pairs))
        scc_decomposition(d)
        for a in d.arrows:
            if p.order(a.source) + 1 <= p.depth:
                piece = path_to_piece(d, [a.source, a.target])
                assert p.i(piece) == a.source


@pytest.mark.parametrize("seed", range(10))
def test_random_puzzle_duality(seed):
    rng = random.Random(2000 + seed)
    p = random_puzzle(rng, rng.randint(2, 4))
    q = dual(p)
    assert q.validate().ok
    assert dual(q).to_json() == p.to_json()
    # the metric only sees i-chains, so dual distances use f-chains and
    # both satisfy the contraction inequality in their own puzzle
    pieces = [v for v in q.pieces() if q.order(v) >= 1]
    for v in pieces[:10]:
        for w in pieces[:10]:
            assert (
                distance(q, q.i(v), q.i(w)).value()
                <= distance(q, v, w).doubled()
            )


def test_dual_of_undetermined_puzzle_analyzes():
    from qfpuzzles.constructions import undetermined_puzzle

    q = dual(undetermined_puzzle())
    assert q.validate().ok
    an = ReducibilityAnalyzer(q)
    res = an.is_determined()
    assert res.determined in (True, False)  # defined either way
    for n in range(1, q.depth):
        an.irreducible_pieces(n)


def reference_verdict(p: Puzzle, piece: int) -> ReducibilityVerdict:
    """The definition read literally: walk the i-trees below ``piece`` and

    ``f(piece)`` level by level, checking that ``f`` is a bijection
    between each pair of levels, then look for an (R2) sibling.
    """
    d_avail = p.depth - p.order(piece)
    fv = p.f(piece)
    level_v, level_fv = [piece], [fv]
    for lvl in range(1, d_avail + 1):
        level_v = [w for u in level_v for w in p.i_preimages(u)]
        level_fv = [w for u in level_fv for w in p.i_preimages(u)]
        images = set()
        ok = len(level_v) == len(level_fv)
        if ok:
            target = set(level_fv)
            for w in level_v:
                img = p.f(w)
                if img in images or img not in target:
                    ok = False
                    break
                images.add(img)
        if not ok:
            return ReducibilityVerdict(Status.IRREDUCIBLE_R1, d_avail, witness_level=lvl)
    for sib in p.i_preimages(p.i(piece)):
        if sib != piece and p.f(sib) == fv:
            return ReducibilityVerdict(Status.IRREDUCIBLE_R2, d_avail, witness_piece=sib)
    if d_avail < 1:
        return ReducibilityVerdict(Status.UNKNOWN, d_avail)
    return ReducibilityVerdict(Status.REDUCIBLE, d_avail)


def assert_verdicts_match_reference(p: Puzzle) -> None:
    an = ReducibilityAnalyzer(p)
    for piece in p.pieces():
        if p.order(piece) >= 1:
            assert an.verdict(piece) == reference_verdict(p, piece), p.label(piece)


@pytest.mark.parametrize("block", range(10))
def test_one_pass_verdicts_match_tree_walk_on_fuzz_puzzles(block):
    # 10 blocks x 20 puzzles, each checked piece by piece, and its dual too.
    rng = random.Random(3000 + block)
    for _ in range(20):
        p = random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6))
        assert_verdicts_match_reference(p)
        assert_verdicts_match_reference(dual(p))


def test_one_pass_verdicts_match_tree_walk_on_constructions():
    puzzles = [
        full_shift_puzzle(5),
        full_shift_puzzle(3, alphabet="012"),
        golden_mean_puzzle(6),
        from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6),
        from_subshift(words_avoiding("01", [("1", "0", "1"), ("0", "0", "0")], 6), 6),
        periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5),
        layered_full_shifts_puzzle(3, 5),
        undetermined_puzzle(),
    ]
    for p in puzzles:
        assert_verdicts_match_reference(p)
        assert_verdicts_match_reference(dual(p))


def test_analyzer_refuses_invalid_puzzles():
    for overrides in ({"01": "ε"}, {"010": "00"}):
        broken = full_shift_puzzle(3).with_f_override(overrides)
        with pytest.raises(PuzzleError, match="fails validation"):
            ReducibilityAnalyzer(broken)


def reference_puzzle_zeta(
    p: Puzzle,
    level: int,
    order: int,
    cert_depth: int,
    analyzer: ReducibilityAnalyzer | None = None,
) -> PuzzleZetaResult:
    """The lift search as first written: per-position ``lift_options``

    scans of ``i_preimages``, a hand-written ``_product``, and the tag
    test repeated for every piece of every certified word.
    """
    if not level < cert_depth <= p.depth:
        raise ValueError("need level < cert_depth <= depth")
    an = analyzer or ReducibilityAnalyzer(p)
    graph = gamma_n(p, level)

    id_of = {p.label(v): v for v in p.level(level)}
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def lift_options(beta: tuple[int, ...], j: int) -> list[int]:
        nxt = beta[(j + 1) % len(beta)]
        return [w for w in p.i_preimages(beta[j]) if p.f(w) == nxt]

    def certify(beta: tuple[int, ...], at_level: int) -> tuple[int, ...] | None:
        """Return a lift of beta at cert_depth, or None.  Failures are

        memoized; they recur across periodic words sharing a stretch.
        """
        if at_level == cert_depth:
            return beta
        key = (at_level, beta)
        if key in memo:
            return None
        options = [lift_options(beta, j) for j in range(len(beta))]
        if all(options):
            for candidate in _product(options):
                lifted = certify(tuple(candidate), at_level + 1)
                if lifted is not None:
                    return lifted
        memo[key] = False
        return None

    totals, certs, classes = [], [], []
    for n in range(1, order + 1):
        words = _periodic_words(graph, n)
        cert_count = 0
        for word in words:
            beta = tuple(id_of[w] for w in word)
            top = certify(beta, level)
            certified = top is not None
            tag = "unliftable-at-depth"
            if certified:
                cert_count += 1
                tag = "liftable-with-low-return"
                for piece in top:
                    chain = an.reduction_chain(piece)
                    if chain.kind == "unknown" or (
                        chain.kind == "irreducible" and p.order(chain.terminal) > level
                    ):
                        tag = "liftable-high"
                        break
            classes.append(PeriodicClass(word, certified, tag))
        totals.append(len(words))
        certs.append(cert_count)
    uncert = [t - c for t, c in zip(totals, certs)]
    return PuzzleZetaResult(
        level,
        cert_depth,
        order,
        tuple(totals),
        tuple(certs),
        tuple(uncert),
        tuple(classes),
        zeta_from_counts(certs, order=order),
    )


def _product(options: list[list[int]]):
    if not options:
        yield []
        return
    head, *tail = options
    for choice in head:
        for rest in _product(tail):
            yield [choice, *rest]


def assert_zeta_matches_reference(p: Puzzle, order: int) -> None:
    """Every (level, cert_depth) pair: the whole result, tags and class order included."""
    an = ReducibilityAnalyzer(p)
    for level in range(1, p.depth):
        pairs = {(p.label(p.i(w)), p.label(p.f(w))) for w in p.level(level + 1)}
        assert gamma_n(p, level).edges == tuple(Edge(u, v) for u, v in sorted(pairs))
        for cert in range(level + 1, p.depth + 1):
            expected = reference_puzzle_zeta(p, level, order, cert, an)
            assert puzzle_zeta_n(p, level, order, cert, an) == expected, (level, cert)


def test_puzzle_zeta_matches_reference_on_constructions():
    puzzles = [
        full_shift_puzzle(5),
        full_shift_puzzle(3, alphabet="012"),
        golden_mean_puzzle(6),
        from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6),
        from_subshift(words_avoiding("01", [("1", "0", "1"), ("0", "0", "0")], 6), 6),
        periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5),
        layered_full_shifts_puzzle(3, 5),
        undetermined_puzzle(),
    ]
    for p in puzzles:
        assert_zeta_matches_reference(p, 6)
        assert_zeta_matches_reference(dual(p), 6)
    for p, level, order, cert in [
        (layered_full_shifts_puzzle(5, 6), 1, 6, 5),
        (periodic_orbit_tower_puzzle([2, 3, 2, 2, 3, 2], 6), 1, 6, 6),
    ]:
        result = puzzle_zeta_n(p, level, order, cert)
        assert result == reference_puzzle_zeta(p, level, order, cert)
        assert sum(result.counts_certified) > 0


@pytest.mark.parametrize("block", range(10))
def test_puzzle_zeta_matches_reference_on_fuzz_puzzles(block):
    # 10 blocks x 15 puzzles, each with its dual, at every level < cert_depth <= depth.
    rng = random.Random(4000 + block)
    for _ in range(15):
        p = random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6))
        assert_zeta_matches_reference(p, 6)
        assert_zeta_matches_reference(dual(p), 6)
