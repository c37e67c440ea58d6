import pytest

from qfpuzzles.constructions import (
    full_shift_puzzle,
    golden_mean_puzzle,
    layered_full_shifts_puzzle,
    periodic_orbit_tower_puzzle,
    undetermined_puzzle,
    words_avoiding,
)
from qfpuzzles.puzzle import DyadicDistance, PuzzleError, from_subshift
from qfpuzzles.reducibility import ReducibilityAnalyzer, Status


def labels(p, pieces):
    return sorted(p.label(v) for v in pieces)


def test_full_shift_word_is_reducible():
    p = full_shift_puzzle(4)
    an = ReducibilityAnalyzer(p)
    v = an.verdict(p.id_of("01"))
    assert v.status is Status.REDUCIBLE
    assert v.certified_depth == 2


def test_full_shift_letters_are_sibling_irreducible():
    p = full_shift_puzzle(4)
    an = ReducibilityAnalyzer(p)
    v = an.verdict(p.id_of("0"))
    assert v.status is Status.IRREDUCIBLE_R2
    assert p.label(v.witness_piece) == "1"


def test_golden_mean_constraint_word_fails_tree_isomorphism():
    p = golden_mean_puzzle(4)
    an = ReducibilityAnalyzer(p)
    v = an.verdict(p.id_of("1"))
    assert v.status is Status.IRREDUCIBLE_R1
    assert v.witness_level == 1


def test_orbit_tower_top_words_are_irreducible():
    p = periodic_orbit_tower_puzzle([2, 3, 2], 3)
    an = ReducibilityAnalyzer(p)
    for label in ("w2.0w2.1", "w2.1w2.2", "w2.2w2.0"):
        assert an.verdict(p.id_of(label)).is_irreducible


def test_unknown_at_truncation_order():
    p = full_shift_puzzle(3)
    an = ReducibilityAnalyzer(p)
    assert an.verdict(p.id_of("010")).status is Status.UNKNOWN


def test_irreducible_pieces_full_shift():
    p = full_shift_puzzle(5)
    an = ReducibilityAnalyzer(p)
    assert labels(p, an.irreducible_pieces(1).certified) == ["0", "1"]
    for n in (2, 3, 4):
        level = an.irreducible_pieces(n)
        assert level.certified == ()
        assert level.unknown == ()


def test_irreducible_pieces_partition_levels():
    p = periodic_orbit_tower_puzzle([2, 2, 3], 3)
    an = ReducibilityAnalyzer(p)
    for n in range(1, p.depth + 1):
        level = an.irreducible_pieces(n)
        reducible = [
            v for v in p.level(n) if an.verdict(v).status is Status.REDUCIBLE
        ]
        assert sorted(level.certified + level.unknown + tuple(reducible)) == sorted(
            p.level(n)
        )


def test_layered_puzzle_irreducibles_cluster_on_zero_spine():
    # Certified irreducibles at each usable level are the zero word plus
    # the layer's own words (all rerouted to the zero word).
    p = layered_full_shifts_puzzle(3, 5)
    an = ReducibilityAnalyzer(p)
    for n in (2, 3):
        expected = {"0" * n} | {
            lbl
            for lbl in (p.label(v) for v in p.level(n))
            if lbl.startswith(f"a{n}") or lbl.startswith(f"b{n}")
        }
        assert set(labels(p, an.irreducible_pieces(n).certified)) == expected


def test_constraint_entropy_full_shift_vanishes():
    p = full_shift_puzzle(5)
    an = ReducibilityAnalyzer(p)
    table = an.constraint_entropy([DyadicDistance(2)], range(2, 5))
    assert table.estimate == 0.0


def test_constraint_entropy_layered_tail_vanishes():
    p = layered_full_shifts_puzzle(3, 5)
    an = ReducibilityAnalyzer(p)
    table = an.constraint_entropy([DyadicDistance(2)], range(3, 5))
    # All order-3 irreducibles sit within 2^-2 of the zero word (their
    # i-chains merge on the zero spine), so one ball covers them.
    assert [c.count for c in table.cells if c.n == 3] == [1]
    assert [c.count for c in table.cells if c.n == 4] == [0]
    assert table.estimate == 0.0


@pytest.mark.parametrize("n_range", [range(0, 3), [-2]])
def test_constraint_entropy_rejects_n_below_one(n_range):
    an = ReducibilityAnalyzer(full_shift_puzzle(4))
    with pytest.raises(PuzzleError, match="n >= 1"):
        an.constraint_entropy([DyadicDistance(2)], n_range)


def test_constraint_entropy_orbit_tower_bounded():
    p = periodic_orbit_tower_puzzle([2, 3, 2, 3], 4)
    an = ReducibilityAnalyzer(p)
    for n in (2, 3):
        count = len(an.irreducible_pieces(n).certified)
        assert count <= max([2, 3, 2, 3]) + 3


def test_reduces_chain_and_conventions():
    p = full_shift_puzzle(4)
    an = ReducibilityAnalyzer(p)
    v = p.id_of("010")
    assert an.reduces(v, 0).piece == v
    two = an.reduces(v, 2)
    assert two.status == "ok" and p.label(two.piece) == "0"
    blocked = an.reduces(p.id_of("0"), 1)
    assert blocked.status == "blocked" and blocked.piece is None


def test_reduces_rejects_overlong_chains():
    p = full_shift_puzzle(3)
    an = ReducibilityAnalyzer(p)
    with pytest.raises(ValueError):
        an.reduces(p.id_of("01"), 3)


def test_reduction_chain_kinds():
    p = golden_mean_puzzle(4)
    an = ReducibilityAnalyzer(p)
    chain = an.reduction_chain(p.id_of("10"))
    assert chain.kind == "irreducible"
    assert labels(p, chain.pieces) == ["0", "10"]
    top = an.reduction_chain(p.id_of("0101"))
    assert top.kind == "unknown"


def test_ids_outside_the_puzzle_are_refused():
    # A negative id is no index from the end, and an id past the end is
    # no bare IndexError.
    p = golden_mean_puzzle(4)
    an = ReducibilityAnalyzer(p)
    size = len(p.pieces())
    for piece in (-1, -size, size, size + 1):
        for call in (an.verdict, an.reduction_chain, lambda v: an.reduces(v, 0)):
            with pytest.raises(ValueError, match=rf"^no piece with id {piece}$"):
                call(piece)


def test_ids_at_both_ends_still_answer():
    p = golden_mean_puzzle(4)
    an = ReducibilityAnalyzer(p)
    last = len(p.pieces()) - 1
    assert p.order(last) == 4 and an.verdict(last).status is Status.UNKNOWN
    assert an.reduction_chain(last).pieces == (last,)
    assert an.reduction_chain(0).kind == "root" and an.reduces(0, 0).piece == 0
    with pytest.raises(ValueError, match=r"^reducibility is defined for pieces of order >= 1$"):
        an.verdict(0)


def test_reduction_chain_reaches_root_in_unary_shift():
    p = from_subshift({"", "0", "00", "000"}, 3, name="unary")
    an = ReducibilityAnalyzer(p)
    chain = an.reduction_chain(p.id_of("00"))
    assert chain.kind == "root"
    assert p.order(chain.terminal) == 0


def test_subshift_puzzles_are_determined():
    for p in (full_shift_puzzle(4), golden_mean_puzzle(4)):
        res = ReducibilityAnalyzer(p).is_determined()
        assert res.determined and res.counterexample is None


def test_orbit_tower_is_determined():
    p = periodic_orbit_tower_puzzle([2, 3, 2, 3, 2], 5)
    assert ReducibilityAnalyzer(p).is_determined().determined


def test_undetermined_puzzle_yields_counterexample():
    p = undetermined_puzzle()
    res = ReducibilityAnalyzer(p).is_determined()
    assert not res.determined
    u, v = res.counterexample
    assert (p.label(u), p.label(v)) == ("u", "v")
    an = ReducibilityAnalyzer(p)
    assert an.verdict(u).status is Status.REDUCIBLE and an.verdict(v).status is Status.REDUCIBLE
    assert p.f(u) == p.f(v)
    assert p.project(u, 1) == p.project(v, 1)
    assert p.i(u) != p.i(v)


def test_irreducibility_propagates_to_i_parent():
    # If a piece of order > 1 is irreducible, so is its i-parent;
    # exhaustive over several example puzzles.
    puzzles = [
        full_shift_puzzle(5),
        golden_mean_puzzle(5),
        from_subshift(words_avoiding("01", [("1", "1", "1")], 5), 5),
        layered_full_shifts_puzzle(2, 4),
        periodic_orbit_tower_puzzle([2, 3, 2, 2], 4),
    ]
    for p in puzzles:
        an = ReducibilityAnalyzer(p)
        for n in range(2, p.depth):
            for v in an.irreducible_pieces(n).certified:
                parent = p.i(v)
                assert an.verdict(parent).is_irreducible, (
                    p.name, p.label(v), p.label(parent),
                )


def test_reduction_targets_unique_per_sibling_group():
    # If two pieces share an i-parent and their reduction chains meet the
    # same piece, they must be equal (and at the same chain position).
    puzzles = [full_shift_puzzle(4), golden_mean_puzzle(4),
               periodic_orbit_tower_puzzle([2, 2, 3], 3)]
    for p in puzzles:
        an = ReducibilityAnalyzer(p)
        for n in range(1, p.depth + 1):
            groups = {}
            for v in p.level(n):
                groups.setdefault(p.i(v), []).append(v)
            for siblings in groups.values():
                reach = {}
                for u in siblings:
                    chain = an.reduction_chain(u)
                    usable = chain.pieces if chain.kind != "unknown" else chain.pieces[:-1]
                    for k, piece in enumerate(usable):
                        if k == 0:
                            continue
                        if piece in reach:
                            assert reach[piece] == (u, k), p.name
                        else:
                            reach[piece] = (u, k)


def test_sibling_competition_never_fires_past_order_one_in_subshifts():
    for p in (full_shift_puzzle(4), golden_mean_puzzle(5)):
        an = ReducibilityAnalyzer(p)
        for n in range(2, p.depth + 1):
            for v in p.level(n):
                assert an.verdict(v).status is not Status.IRREDUCIBLE_R2


def test_sibling_competition_is_decidable_at_the_truncation_order():
    # R2 needs no tree levels, so competing pieces at the deepest level
    # still get a definite verdict rather than Unknown.
    p = periodic_orbit_tower_puzzle([2, 3, 2], 3)
    an = ReducibilityAnalyzer(p)
    v = an.verdict(p.id_of("000"))
    assert v.status is Status.IRREDUCIBLE_R2
    assert p.label(v.witness_piece).startswith("w3")


def test_analyzer_rejects_root_and_bad_orders():
    p = full_shift_puzzle(3)
    an = ReducibilityAnalyzer(p)
    with pytest.raises(ValueError):
        an.verdict(p.root)
    with pytest.raises(ValueError):
        an.irreducible_pieces(0)
