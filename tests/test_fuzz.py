"""Randomized structural fuzzing over abstract puzzles.

Generates random valid puzzles directly from the axioms (not via word
languages): a random parent tree defines ``i``; ``f`` is then chosen
level by level among the commutation-compatible targets.  Everything
the analyzer claims about such puzzles must hold without exception.
"""

import gc
import random
from itertools import combinations, product

import pytest

import qfpuzzles.zeta as zeta_module
from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
    words_avoiding,
)
from qfpuzzles.diagram import DiagramError, build_diagram, path_to_piece, scc_decomposition
from qfpuzzles.graphs import Edge, GraphTruncation, gamma_n
from qfpuzzles.puzzle import Puzzle, PuzzleError, distance, dual, from_subshift
from qfpuzzles.reducibility import (
    ChainResult,
    DeterminacyResult,
    IrreducibleLevel,
    ReducibilityAnalyzer,
    ReducibilityVerdict,
    ReductionOutcome,
    Status,
)
from qfpuzzles.zeta import (
    PeriodicClass,
    PuzzleZetaResult,
    puzzle_zeta_n,
    zeta_from_counts,
)


def with_f_override(p: Puzzle, overrides: dict[str, str]) -> Puzzle:
    """Copy of ``p`` with some f-images replaced, to build broken puzzles."""
    data = p.to_json()
    data["f"].update(overrides)
    return Puzzle(data["levels"], data["i"], data["f"], name=p.name + "+override")


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
                <= 2 * distance(q, v, w).value()
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


def test_second_analyzer_on_one_puzzle_gives_the_same_verdicts():
    # the rival check and the fibres are kept on the puzzle, so a second analyzer reads
    # what the first one left; both must agree with the definition
    rng = random.Random(3100)
    fuzz = [random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6)) for _ in range(20)]
    for p in [layered_full_shifts_puzzle(3, 5), periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5),
              undetermined_puzzle(), golden_mean_puzzle(6), *fuzz]:
        for q in (p, dual(p)):
            first, second = ReducibilityAnalyzer(q), ReducibilityAnalyzer(q)
            for piece in q.pieces()[1:]:
                assert first.verdict(piece) == second.verdict(piece) == reference_verdict(q, piece)
            for n in range(1, q.depth + 1):
                assert first.irreducible_pieces(n) == second.irreducible_pieces(n)


SHORT_WORDS = ["".join(w) for n in (2, 3) for w in product("01", repeat=n)]


@pytest.mark.parametrize(
    "forbidden",
    [F for k in range(3) for F in combinations(SHORT_WORDS, k)],
    ids=lambda F: "-".join(F) or "none",
)
def test_one_pass_verdicts_match_tree_walk_on_subshifts(forbidden):
    # every set of at most two binary words of length 2-3: 1 + 12 + 66 = 79
    p = from_subshift(words_avoiding("01", forbidden, 6), 6)
    assert_verdicts_match_reference(p)
    assert_verdicts_match_reference(dual(p))


def reference_irreducible_pieces(p: Puzzle, n: int, verdict) -> IrreducibleLevel:
    """The definition: the order-``n`` pieces, in id order, whose verdict
    ``verdict(piece)`` is irreducible, and apart those whose verdict is unknown."""
    level = [(v, verdict(v)) for v in p.level(n)]
    return IrreducibleLevel(
        tuple(v for v, x in level if x.status in (Status.IRREDUCIBLE_R1, Status.IRREDUCIBLE_R2)),
        tuple(v for v, x in level if x.status is Status.UNKNOWN),
    )


def reference_reduction_chain(p: Puzzle, piece: int, verdict) -> ChainResult:
    """The definition: apply ``f`` while ``verdict`` says reducible; end at
    an irreducible piece, an unknown verdict or the root."""
    pieces = [piece]
    while p.order(pieces[-1]) >= 1:
        status = verdict(pieces[-1]).status
        if status in (Status.IRREDUCIBLE_R1, Status.IRREDUCIBLE_R2):
            return ChainResult("irreducible", tuple(pieces))
        if status is Status.UNKNOWN:
            return ChainResult("unknown", tuple(pieces))
        pieces.append(p.f(pieces[-1]))
    return ChainResult("root", tuple(pieces))


def reference_reduces(p: Puzzle, piece: int, k: int, verdict) -> ReductionOutcome:
    """The definition: ``f^k(piece)`` when the first ``k`` pieces of the
    f-orbit are reducible, else blocked at an irreducible one or unknown."""
    for _ in range(k):
        status = verdict(piece).status
        if status is not Status.REDUCIBLE:
            return ReductionOutcome(None, "unknown" if status is Status.UNKNOWN else "blocked")
        piece = p.f(piece)
    return ReductionOutcome(piece, "ok")


def assert_derived_notions_match_reference(p: Puzzle, every_k: bool = True) -> None:
    """Verdicts, irreducible levels, reduction chains and, with ``every_k``,
    ``reduces`` at every ``k`` for every piece against the tree walk of
    :func:`reference_verdict`."""
    an = ReducibilityAnalyzer(p)
    verdicts = {v: reference_verdict(p, v) for v in p.pieces() if p.order(v) >= 1}
    for v, expected in verdicts.items():
        assert an.verdict(v) == expected, p.label(v)
        assert an.reduction_chain(v) == reference_reduction_chain(p, v, verdicts.get), p.label(v)
        for k in range(p.order(v) + 1 if every_k else 0):
            assert an.reduces(v, k) == reference_reduces(p, v, k, verdicts.get), (p.label(v), k)
    for n in range(1, p.depth + 1):
        assert an.irreducible_pieces(n) == reference_irreducible_pieces(p, n, verdicts.get), n


@pytest.mark.parametrize("block", range(4))
def test_derived_notions_match_definitions_on_fuzz_puzzles(block):
    # 4 blocks x 20 puzzles and their duals
    rng = random.Random(3100 + block)
    for _ in range(20):
        p = random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6))
        assert_derived_notions_match_reference(p)
        assert_derived_notions_match_reference(dual(p))


def test_derived_notions_match_definitions_on_constructions():
    puzzles = [
        full_shift_puzzle(5),
        golden_mean_puzzle(6),
        from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6),
        from_subshift({"", "0", "00", "000"}, 3),  # chains that reach the root
        periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5),
        layered_full_shifts_puzzle(3, 5),
        undetermined_puzzle(),
    ]
    for p in puzzles:
        assert_derived_notions_match_reference(p)
        assert_derived_notions_match_reference(dual(p))


SHIFT_WORDS = [w for n in (2, 3, 4) for w in product("01", repeat=n)]
SHIFT_SETS = [F for k in (1, 2, 3) for F in combinations(SHIFT_WORDS, k)]  # 28 + 378 + 3,276


@pytest.mark.parametrize("block", range(4))
def test_derived_notions_match_definitions_on_the_shift_universe(block):
    # The benchmark's shift universe at depth 12: one to three forbidden binary
    # words of length 2 to 4, kept when level 12 is not empty and at least twice
    # level 8.  Every 32nd set, in 4 blocks, to bound the time.
    kept = 0
    for forbidden in SHIFT_SETS[block * 8::32]:
        words = words_avoiding("01", forbidden, 12)
        sizes = [0] * 13
        for w in words:
            sizes[len(w)] += 1
        if sizes[12] and sizes[12] >= 2 * sizes[8]:
            p = from_subshift(words, 12, name=str(forbidden))
            assert_derived_notions_match_reference(p, every_k=False)
            kept += 1
    assert kept >= 15


def test_analyzer_refuses_invalid_puzzles():
    for overrides in ({"01": "ε"}, {"010": "00"}):
        broken = with_f_override(full_shift_puzzle(3), overrides)
        with pytest.raises(PuzzleError, match="fails validation"):
            ReducibilityAnalyzer(broken)


def reference_is_determined(an: ReducibilityAnalyzer) -> DeterminacyResult:
    """``is_determined`` as first written: each reducible piece walks up
    to its order-1 ancestor with ``project``."""
    p = an.puzzle
    top = p.depth - 1
    for n in range(1, top + 1):
        by_target: dict[tuple[int, int], list[int]] = {}
        for piece in sorted(p.level(n), key=p.label):
            if an.verdict(piece).status is Status.REDUCIBLE:
                by_target.setdefault((p.f(piece), p.project(piece, 1)), []).append(piece)
        pairs = [tuple(group[:2]) for group in by_target.values() if len(group) > 1]
        if pairs:
            u, v = min(pairs, key=lambda uv: (p.label(uv[0]), p.label(uv[1])))
            return DeterminacyResult(False, (u, v), n)
    return DeterminacyResult(True, None, top)


def test_is_determined_matches_project_walk():
    rng = random.Random(5000)
    puzzles = [undetermined_puzzle(), periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5)]
    puzzles += [random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 6)) for _ in range(60)]
    outcomes = set()
    for p in puzzles:
        for q in (p, dual(p)):
            an = ReducibilityAnalyzer(q)
            result = an.is_determined()
            assert result == reference_is_determined(an)
            outcomes.add(result.determined)
    assert outcomes == {True, False}


def shuffle_labels(p: Puzzle, rng: random.Random) -> Puzzle:
    """``p`` with the same ids under random labels, so label order is not id order."""
    names = [f"q{k:03d}" for k in p.pieces()]
    rng.shuffle(names)
    data = p.to_json()
    rename = {p.label(v): names[v] for v in p.pieces()}
    return Puzzle(
        [[rename[x] for x in level] for level in data["levels"]],
        {rename[a]: rename[b] for a, b in data["i"].items()},
        {rename[a]: rename[b] for a, b in data["f"].items()},
        name=p.name,
    )


def test_is_determined_matches_project_walk_under_shuffled_labels():
    # the counterexample is chosen in label order, whatever the id order; wide
    # levels give some levels with two or more colliding groups
    rng = random.Random(5001)
    outcomes = set()
    for _ in range(60):
        p = random_puzzle(rng, rng.randint(2, 5), max_width=rng.randint(2, 10))
        for q in (p, dual(p)):
            an = ReducibilityAnalyzer(shuffle_labels(q, rng))
            result = an.is_determined()
            assert result == reference_is_determined(an)
            outcomes.add(result.determined)
    assert outcomes == {True, False}


def reference_puzzle_zeta(
    p: Puzzle,
    level: int,
    order: int,
    cert_depth: int,
    analyzer: ReducibilityAnalyzer | None = None,
) -> PuzzleZetaResult:
    """The lift search as first written: one enumeration per period,
    per-position ``lift_options`` scans of ``i_preimages``, a hand-written
    ``_product``, and the tag test repeated for every piece of every
    certified word.  At ``cert_depth == depth`` certified words carry the
    unknown tag, as in :func:`puzzle_zeta_n`.
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
                if cert_depth == p.depth:
                    tag = "liftable-unknown-beyond-depth"
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


def _periodic_words(g: GraphTruncation, n: int) -> list[tuple[str, ...]]:
    """All n-periodic vertex sequences (x_0 .. x_{n-1}) along plain edges."""
    outs = g.adjacency
    out: list[tuple[str, ...]] = []

    def extend(word: list[str]):
        if len(word) == n:
            for e in outs[word[-1]]:
                if e.dst == word[0]:
                    out.append(tuple(word))
            return
        for e in outs[word[-1]]:
            word.append(e.dst)
            extend(word)
            word.pop()

    for v in sorted(g.vertices):
        extend([v])
    return out


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


def window_kind(p: Puzzle, level: int, cert_depth: int, word: tuple[str, ...]) -> str:
    """How a word's cyclic windows of ``cert_depth - level + 1`` letters lift,

    read off the lift triangles with ``i_preimages`` scans: "dead" when a
    forced pair of pieces has no lift, "ambig" when a window without such
    a pair has a top that is not forced, "dead+ambig" for both, "forced"
    otherwise.
    """
    ids = [p.id_of(x) for x in word]
    m, n = cert_depth - level, len(ids)
    dead = ambig = False
    for j in range(n):
        row = [ids[(j + t) % n] for t in range(m + 1)]
        window_dead = False
        for _ in range(m):
            nxt = []
            for a, b in zip(row, row[1:]):
                options = [] if None in (a, b) else [w for w in p.i_preimages(a) if p.f(w) == b]
                window_dead = window_dead or (None not in (a, b) and not options)
                nxt.append(options[0] if len(options) == 1 else None)
            row = nxt
        dead = dead or window_dead
        ambig = ambig or (not window_dead and row[0] is None)
    return {(False, False): "forced", (True, False): "dead", (False, True): "ambig"}.get(
        (dead, ambig), "dead+ambig"
    )


def test_puzzle_zeta_block_map_branches_match_reference(monkeypatch):
    searches = []

    def counting_product(*options):
        searches.append(options)
        return product(*options)

    monkeypatch.setattr(zeta_module, "product", counting_product)
    cases = [
        (layered_full_shifts_puzzle(3, 5), 1, 6, 4),  # ambiguous windows
        (from_subshift(words_avoiding("01", [("1", "1", "1")], 6), 6), 1, 6, 3),  # dead windows
        (random_puzzle(random.Random(4), 4, max_width=3), 1, 5, 4),  # both, in one word too
        (golden_mean_puzzle(8), 1, 6, 8),  # every period <= m = 7
    ]
    seen = set()
    for p, level, order, cert in cases:
        searches.clear()
        result = puzzle_zeta_n(p, level, order, cert)
        assert result == reference_puzzle_zeta(p, level, order, cert)
        kinds = [window_kind(p, level, cert, c.word) for c in result.classes]
        # only words with an ambiguous window and no dead one go to the product search
        assert bool(searches) == ("ambig" in kinds)
        for c, kind in zip(result.classes, kinds):
            assert kind == "forced" or "dead" not in kind or not c.certified
            assert kind != "forced" or c.certified
            seen.add(kind)
            if len(c.word) < cert - level:
                seen.add("wraps more than once")
    assert seen == {"forced", "dead", "ambig", "dead+ambig", "wraps more than once"}


def test_puzzle_zeta_searches_exactly_the_words_with_an_ambiguous_window_and_no_dead_one(monkeypatch):
    # a window with an empty fibre below it is DEAD even where another part of it is
    # ambiguous, so its word never reaches the product search
    searched = []
    first_lift = zeta_module._first_lift

    def recording_first_lift(lifts, beta):
        searched.append(beta)
        return first_lift(lifts, beta)

    monkeypatch.setattr(zeta_module, "_first_lift", recording_first_lift)
    kinds = set()
    for p, level, order, cert in [
        (layered_full_shifts_puzzle(3, 5), 1, 6, 4),
        (random_puzzle(random.Random(4), 4, max_width=3), 1, 5, 4),
        *((random_puzzle(random.Random(seed), 5, max_width=3), 1, 5, 5) for seed in range(6)),
    ]:
        searched.clear()
        result = puzzle_zeta_n(p, level, order, cert)
        assert result == reference_puzzle_zeta(p, level, order, cert)
        words = [c.word for c in result.classes]
        kinds.update(window_kind(p, level, cert, w) for w in words)
        ambiguous = [w for w in words if window_kind(p, level, cert, w) == "ambig"]
        assert sorted(searched) == sorted(tuple(map(p.id_of, w)) for w in ambiguous)
    assert kinds == {"forced", "dead", "ambig", "dead+ambig"}


def test_puzzle_zeta_leaves_no_reference_cycles(monkeypatch):
    # nothing built by a call (the listing, the window tables, the product search) holds
    # a reference cycle, so the call leaves the cyclic collector nothing to do
    searches = []

    def counting_product(*options):
        searches.append(len(options))
        return product(*options)

    monkeypatch.setattr(zeta_module, "product", counting_product)
    cases = [
        (from_subshift(words_avoiding("01", [("1", "1", "0")], 12), 12), 2, 10, 6),
        (layered_full_shifts_puzzle(3, 5), 1, 6, 4),  # reaches the product search
    ]
    for p, level, order, cert in cases:
        searches.clear()
        gc.collect()
        gc.disable()
        try:
            result = puzzle_zeta_n(p, level, order, cert)
            assert sum(result.counts_total) > 0
            del result
            assert gc.collect() == 0, p.name
        finally:
            gc.enable()
    assert searches


def benchmark_like_shift(rng: random.Random, depth: int = 12) -> Puzzle:
    """The puzzle of a binary shift with one to three forbidden words of
    length 2 to 4, redrawn until it has words of every length up to ``depth``."""
    while True:
        forbidden = [tuple(rng.choices("01", k=rng.randint(2, 4))) for _ in range(rng.randint(1, 3))]
        words = words_avoiding("01", forbidden, depth)
        if any(len(w) == depth for w in words):
            return from_subshift(words, depth, name=str(forbidden))


@pytest.mark.parametrize("block", range(4))
def test_puzzle_zeta_matches_reference_on_benchmark_like_shifts(block):
    # 4 blocks x 10 seeded shifts at depth 12, at the benchmark's (level, order, cert) = (2, 10, 6)
    rng = random.Random(9100 + block)
    for _ in range(10):
        p = benchmark_like_shift(rng)
        assert puzzle_zeta_n(p, 2, 10, 6) == reference_puzzle_zeta(p, 2, 10, 6), p.name


def test_puzzle_zeta_matches_reference_on_short_periods_and_one_vertex():
    # golden_mean_puzzle(8) at level 1, cert 7: m = 6, so periods 1 .. 5 wrap more than
    # once; every level of the unary shift is one vertex with a loop
    unary = from_subshift({"0" * n for n in range(7)}, 6)
    for p, level, order, cert in (
        (golden_mean_puzzle(8), 1, 9, 7),
        (unary, 1, 6, 4),
        (unary, 2, 3, 6),
        (unary, 4, 8, 5),
    ):
        result = puzzle_zeta_n(p, level, order, cert)
        assert result == reference_puzzle_zeta(p, level, order, cert), (p.name, level, cert)
        assert sum(result.counts_certified) > 0
    assert [len(unary.level(n)) for n in range(7)] == [1] * 7


def test_puzzle_zeta_matches_reference_on_large_inputs():
    # golden_mean_puzzle(14) to order 12, and a 1,281-vertex level graph at
    # order 2, where the return distances kept reach only a few vertices
    for p, level, order, cert in (
        (golden_mean_puzzle(14), 2, 12, 8),
        (layered_full_shifts_puzzle(5, 10), 8, 2, 9),
    ):
        assert puzzle_zeta_n(p, level, order, cert) == reference_puzzle_zeta(p, level, order, cert)


def test_return_distances_stop_below_the_bound():
    # the 6-cycle 0 -> 1 -> ... -> 5 -> 0 with a loop at 3
    preds = {str(k): {str((k - 1) % 6)} for k in range(6)}
    preds["3"].add("3")
    assert zeta_module._walk_lengths_to(preds, "0", 3) == {"0": 1, "5": 1, "4": 2}
    full = {"0": 1, "5": 1, "4": 2, "3": 3, "2": 4, "1": 5}
    assert zeta_module._walk_lengths_to(preds, "0", 9) == full
    assert zeta_module._walk_lengths_to(preds, "3", 9) == {"3": 1, "2": 1, "1": 2, "0": 3, "5": 4, "4": 5}


def test_puzzle_zeta_order_zero_is_empty():
    for p, level, cert in ((golden_mean_puzzle(5), 2, 4), (layered_full_shifts_puzzle(3, 5), 1, 5)):
        result = puzzle_zeta_n(p, level, 0, cert)
        assert result == reference_puzzle_zeta(p, level, 0, cert)
        assert result.counts_total == result.counts_certified == result.classes == ()
        assert result.zeta == zeta_from_counts([], order=0)
