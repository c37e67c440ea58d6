"""Generators for the example puzzles used throughout the test suites.

Subshift languages (full shift, factor-avoiding shifts, vertex shifts)
feed :func:`qfpuzzles.puzzle.from_subshift`; the layered constructions
glue a family of subshifts over disjoint alphabets onto the zero orbit by
rerouting each length-n word of the n-th layer to the zero word, which
produces puzzles whose constraint growth is concentrated near the zero
spine.  ``undetermined_puzzle`` is a minimal abstract puzzle violating
determinacy.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from qfpuzzles.puzzle import Puzzle, PuzzleError, _walk, from_subshift, word_label


def full_shift_words(alphabet: Sequence[str], depth: int) -> set[tuple[str, ...]]:
    return words_avoiding(alphabet, (), depth)


def words_avoiding(
    alphabet: Sequence[str], forbidden: Iterable[Sequence[str]], depth: int
) -> set[tuple[str, ...]]:
    """All words up to the given length with no forbidden factor, as tuples of
    the alphabet's letters, by the level walk: ``w·a`` has none when ``w`` and
    ``f(w)·a`` have none and ``w·a`` is not forbidden (Lind & Marcus 1995, §2.1)."""
    bad = set(map(tuple, forbidden))
    if () in bad:  # the empty factor occurs in every word
        depth = 0
    return set(_walk(dict.fromkeys(alphabet), depth, forbidden=bad)[0])


def golden_mean_words(depth: int) -> set[tuple[str, ...]]:
    return words_avoiding("01", [("1", "1")], depth)


def full_shift_puzzle(depth: int, alphabet: Sequence[str] = "01") -> Puzzle:
    return from_subshift(full_shift_words(alphabet, depth), depth, name="full-shift")


def golden_mean_puzzle(depth: int) -> Puzzle:
    return from_subshift(golden_mean_words(depth), depth, name="golden-mean")


def _layered_levels(
    layer_words: dict[int, dict[int, list[tuple[str, ...]]]],
    depth: int,
) -> tuple[list[list[str]], dict[str, str], dict[str, str]]:
    """Assemble a glued-union puzzle from per-layer word tables.

    ``layer_words[k][n]`` lists the length-n words of layer ``k``; layer 0
    must be the zero orbit {0^n}.  Words of length n from layer n have
    both maps rerouted to the zero word of length n-1.
    """
    levels: list[list[str]] = [[word_label(())]]
    i_map: dict[str, str] = {}
    f_map: dict[str, str] = {}
    for n in range(1, depth + 1):
        level: list[str] = []
        zero = word_label(("0",) * (n - 1))
        for k in sorted(layer_words):
            for w in sorted(layer_words[k].get(n, [])):
                label = word_label(w)
                level.append(label)
                i_map[label] = zero if k == n else word_label(w[:-1])
                f_map[label] = zero if k == n else word_label(w[1:])
        levels.append(level)
    return levels, i_map, f_map


def layered_full_shifts_puzzle(layers: int, depth: int) -> Puzzle:
    """Zero orbit glued with one full 2-shift per layer ``1..layers``.

    Layer ``k`` uses the alphabet ``{a<k>, b<k>}``; its length-k words are
    rerouted to the zero word.  Conjugate to a disjoint union of full
    shifts; every layer contributes entropy log 2 but the irreducible
    pieces cluster on the zero spine.
    """
    if layers < 1 or depth < layers:
        raise PuzzleError("need 1 <= layers <= depth")
    table = {0: {n: [("0",) * n] for n in range(1, depth + 1)}}
    for k in range(1, layers + 1):
        table[k] = {n: list(product((f"a{k}", f"b{k}"), repeat=n)) for n in range(k, depth + 1)}
    return Puzzle(*_layered_levels(table, depth), name=f"layered-{layers}")


def periodic_orbit_tower_puzzle(periods: Sequence[int], depth: int) -> Puzzle:
    """Full 2-shift glued with one periodic orbit per layer.

    Layer ``n >= 1`` is the orbit of a periodic word of period
    ``periods[n-1]`` over fresh symbols ``w<n>.<j>``; its length-n words
    are rerouted to the zero word.  Unprojected periodic points multiply
    with the layers while level-N projections stay finite.
    """
    if depth < 1 or len(periods) < depth:
        raise PuzzleError("need one period per layer up to the requested depth")
    if any(p < 1 or p > 9 for p in periods[:depth]):
        raise PuzzleError("periods must lie in 1..9 (label scheme)")
    table = {0: {n: list(product("01", repeat=n)) for n in range(1, depth + 1)}}
    for k in range(1, depth + 1):
        p = periods[k - 1]
        symbols = [f"w{k}.{j}" for j in range(p)]
        table[k] = {n: sorted({tuple(symbols[(j + t) % p] for t in range(n)) for j in range(p)})
                    for n in range(k, depth + 1)}
    return Puzzle(*_layered_levels(table, depth), name="orbit-tower")


def undetermined_puzzle() -> Puzzle:
    """A minimal puzzle that is not determined.

    The order-3 pieces ``u`` and ``v`` have distinct i-parents but a
    common level-1 ancestor and a common one-step reduction, so the pair
    (u, v) violates determinacy.  The order-4 level makes both pieces
    certifiably reducible.
    """
    levels = [["R"], ["A"], ["B", "C"], ["u", "v"], ["u'", "v'"]]
    i_map = {"A": "R", "B": "A", "C": "A", "u": "B", "v": "C", "u'": "u", "v'": "v"}
    f_map = {"A": "R", "B": "A", "C": "A", "u": "B", "v": "B", "u'": "u", "v'": "u"}
    return Puzzle(levels, i_map, f_map, name="undetermined")
