"""Core puzzle structures: leveled pieces with refinement and dynamics maps.

A puzzle is a finite-depth truncation of ``(V, i, f)``: disjoint finite
levels ``V_0 .. V_D`` with ``|V_0| = 1`` and two level-decreasing maps
``i, f`` defined on every piece of positive order, commuting with each
other.  Pieces are interned integers; human-readable labels exist for
I/O only and are unique within a puzzle.

Truncation is a first-class notion: any question whose answer depends on
pieces beyond depth ``D`` must be answered with an explicit "unknown
beyond depth" marker by the caller-facing modules, never guessed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate, chain, repeat
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence


class PuzzleError(ValueError):
    """Raised when a constructor receives structurally invalid data."""


@dataclass(frozen=True)
class Violation:
    """One axiom violation found by :meth:`Puzzle.validate`."""

    kind: str  # "multi-root" | "level-skip" | "commutation" | "missing-map"
    piece: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.piece!r}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid puzzle"
        return "\n".join(str(v) for v in self.violations)


@total_ordering
class DyadicDistance:
    """A value ``2**-exponent``, or the special value zero (coincidence).

    Ordered consistently with the numeric values: ``zero() < 2^-n < 2^-m``
    whenever ``n > m``.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: int | None):
        if exponent is not None and not (type(exponent) is int and exponent >= 0):  # bool is refused
            raise ValueError("exponent must be a non-negative integer")
        self.exponent = exponent

    @classmethod
    def zero(cls) -> "DyadicDistance":
        return cls(None)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def value(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, 2**self.exponent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicDistance):
            return NotImplemented
        return self.exponent == other.exponent

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, DyadicDistance):
            return NotImplemented
        # zero is the least value; otherwise a larger exponent is a smaller value
        return other.exponent is not None and (self.exponent is None or self.exponent > other.exponent)

    def __hash__(self):
        return hash(self.exponent)

    def __repr__(self) -> str:
        return "DyadicDistance(zero)" if self.is_zero else f"DyadicDistance(2^-{self.exponent})"


class Puzzle:
    """Immutable leveled piece structure with maps ``i`` and ``f``.

    The constructor interns pieces and tabulates maps and children (fibres
    follow on demand) but does not enforce the axioms; :meth:`validate`
    reports violations as data, so broken puzzles can be built for testing.
    """

    def __init__(
        self,
        levels: Sequence[Sequence[str]],
        i_map: Mapping[str, str],
        f_map: Mapping[str, str],
        name: str = "puzzle",
    ):
        if not levels:
            raise PuzzleError("a puzzle needs at least levels V_0 and V_1")
        if len(levels) < 2:
            raise PuzzleError("depth must be >= 1 (supply V_0 and V_1)")
        label_to_id = _number_labels(levels)

        def resolve(mapping: Mapping[str, str], which: str) -> list[int | None]:
            out: list[int | None] = [None] * len(label_to_id)
            for src, dst in mapping.items():
                if src not in label_to_id:
                    raise PuzzleError(f"{which}-map source {src!r} is not a piece")
                if dst not in label_to_id:
                    raise PuzzleError(f"{which}-map target {dst!r} is not a piece")
                out[label_to_id[src]] = label_to_id[dst]
            return out

        self._assemble(levels, label_to_id, resolve(i_map, "i"), resolve(f_map, "f"), name)

    @classmethod
    def _from_ids(cls, levels: Sequence[Sequence[str]], i: Sequence[int | None],
                  f: Sequence[int | None], name: str) -> "Puzzle":
        """A puzzle whose ``i`` and ``f`` are given on ids: the labels, numbered level by level."""
        puzzle = cls.__new__(cls)
        puzzle._assemble(levels, _number_labels(levels), i, f, name)
        return puzzle

    def _assemble(self, levels: Sequence[Sequence[str]], label_to_id: dict[str, int],
                  i: Sequence[int | None], f: Sequence[int | None], name: str) -> None:
        """Set up from ids: level ``n`` holds the next ``len(levels[n])`` ids,
        ``label_to_id`` lists the labels in id order, and ``i`` and ``f``
        hold each id's image, ``None`` where undefined.  The id tables are
        built here, once; a level's fibres and rival check on first use."""
        self.name = name
        self.depth = len(levels) - 1
        self._label_to_id = label_to_id
        self._labels = tuple(label_to_id)
        sizes = [len(level) for level in levels]
        bounds = [0, *accumulate(sizes)]
        self.levels = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
        self._level_of = tuple(chain.from_iterable(map(repeat, range(len(sizes)), sizes)))
        self._i, self._f = tuple(i), tuple(f)
        children: list[list[int]] = [[] for _ in self._i]
        for src, tgt in enumerate(self._i):
            if tgt is not None:
                children[tgt].append(src)
        self._children = tuple(map(tuple, children))
        self._spans = tuple(map(slice, bounds, bounds[1:]))  # level n holds the ids of _spans[n]
        self._fibres: list[Mapping[tuple[int, int], tuple[int, ...]] | None] = [None] * len(sizes)
        self._rivals: list[bool | None] = [None] * len(sizes)

    def _has_rivals(self, n: int) -> bool:
        """Whether two order-``n`` pieces share their ``(i, f)`` images, by the
        ``int`` keys ``i * size + f`` (no fibre is built); kept per level.
        The maps must be defined on the level."""
        if (rivals := self._rivals[n]) is None:
            span, size = self._spans[n], len(self._labels)
            keys = {i * size + f for i, f in zip(self._i[span], self._f[span])}
            rivals = self._rivals[n] = len(keys) < span.stop - span.start
        return rivals

    # -- piece accessors -------------------------------------------------

    def pieces(self) -> range:
        return range(len(self._labels))

    def label(self, piece: int) -> str:
        return self._labels[piece]

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise PuzzleError(f"no piece labeled {label!r}") from None

    def order(self, piece: int) -> int:
        return self._level_of[piece]

    def level(self, n: int) -> tuple[int, ...]:
        return self.levels[n]

    @property
    def root(self) -> int:
        return self.levels[0][0]

    def i(self, piece: int) -> int:
        target = self._i[piece]
        if target is None:
            raise PuzzleError(f"i undefined on {self.label(piece)!r}")
        return target

    def f(self, piece: int) -> int:
        target = self._f[piece]
        if target is None:
            raise PuzzleError(f"f undefined on {self.label(piece)!r}")
        return target

    def i_iter(self, piece: int, k: int) -> int:
        for _ in range(k):
            piece = self.i(piece)
        return piece

    def f_iter(self, piece: int, k: int) -> int:
        for _ in range(k):
            piece = self.f(piece)
        return piece

    def i_preimages(self, piece: int) -> tuple[int, ...]:
        return self._children[piece]

    def fibres(self, n: int) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """The order-``n`` pieces grouped by ``(i(v), f(v))``, in id order.

        Each key is an edge ``u -> v`` of the level-``n - 1`` transition
        graph; its fibre holds the pieces lifting that edge, which are
        each other's (R2) rivals.  Built on the first call for a level and
        kept, so later calls return the same mapping.  A level where a map is
        undefined raises on every call, as the accessors do; ``n`` outside
        ``0 .. depth`` raises :class:`IndexError`.
        """
        if not 0 <= n <= self.depth:  # a negative level is no index from the end
            raise IndexError(f"no level {n} in a puzzle of depth {self.depth}")
        if (fibres := self._fibres[n]) is None:
            i, f = self._i[self._spans[n]], self._f[self._spans[n]]
            if None in i or None in f:
                for v in self.levels[n]:  # the accessors raise the error, i first
                    self.i(v), self.f(v)
            out: dict[tuple[int, int], tuple[int, ...]] = {}
            for key, v in zip(zip(i, f), self.levels[n]):  # a fibre holds few pieces: grow its tuple
                out[key] = out.get(key, ()) + (v,)
            fibres = self._fibres[n] = MappingProxyType(out)
        return fibres

    def project(self, piece: int, n: int) -> int:
        """``i_n``: the order-``min(|v|, n)`` ancestor of a piece."""
        drop = max(0, self.order(piece) - n)
        return self.i_iter(piece, drop)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every axiom; violations are returned, never raised."""
        out: list[Violation] = []
        i, f, level_of, label = self._i, self._f, self._level_of, self.label

        def flag(kind: str, piece: int, detail: str) -> None:
            out.append(Violation(kind, label(piece), detail))

        if len(self.levels[0]) != 1:
            out.append(
                Violation("multi-root", "V_0", f"V_0 has {len(self.levels[0])} elements, expected 1")
            )
        for n in range(1, self.depth + 1):
            up = n - 1  # only a piece with a map missing or not landing on order n - 1 is flagged
            for piece in [v for v in self.levels[n] if i[v] is None or f[v] is None
                          or level_of[i[v]] != up or level_of[f[v]] != up]:
                for which, to in (("i", i[piece]), ("f", f[piece])):
                    if to is None:
                        flag("missing-map", piece, f"{which} is undefined")
                    elif level_of[to] != up:
                        flag("level-skip", piece, f"{which} maps order {n} to order {level_of[to]}")
        start = len(self.levels[0]) + len(self.levels[1])  # the first piece of order >= 2
        for piece in [v for v, iv, fv in zip(range(start, len(i)), i[start:], f[start:])
                      if iv is None or fv is None or i[fv] != f[iv]]:
            if i[piece] is None or f[piece] is None:
                continue
            fi, if_ = i[f[piece]], f[i[piece]]
            if fi is not None and if_ is not None and fi != if_:
                flag("commutation", piece, f"i(f(v))={label(fi)!r} != f(i(v))={label(if_)!r}")
        for piece in self.levels[0]:
            if i[piece] is not None or f[piece] is not None:
                flag("level-skip", piece, "maps defined on the root")
        return ValidationReport(tuple(out))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "levels": [[self.label(p) for p in level] for level in self.levels],
            "i": {self.label(p): self.label(t) for p, t in enumerate(self._i) if t is not None},
            "f": {self.label(p): self.label(t) for p, t in enumerate(self._f) if t is not None},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, data: dict, name: str = "puzzle") -> "Puzzle":
        """Load the :meth:`to_json` form; raises :class:`PuzzleError` on
        missing keys or ill-typed values (labels must be strings)."""
        if not isinstance(data, dict):
            raise PuzzleError("puzzle JSON must be an object")
        try:
            levels = data["levels"]
            i_map = data["i"]
            f_map = data["f"]
        except KeyError as missing:
            raise PuzzleError(f"puzzle JSON missing key {missing}") from None
        if not isinstance(levels, list) or not all(
            isinstance(level, list) and all(isinstance(label, str) for label in level)
            for level in levels
        ):
            raise PuzzleError('"levels" must be a list of lists of string labels')
        for key, mapping in (("i", i_map), ("f", f_map)):
            if not isinstance(mapping, dict) or not all(
                isinstance(label, str) for label in mapping.values()
            ):
                raise PuzzleError(f'"{key}" must be an object mapping labels to labels')
        if "depth" in data and data["depth"] != len(levels) - 1:
            raise PuzzleError("depth field inconsistent with levels")
        return cls(levels, i_map, f_map, name=name)

    @classmethod
    def loads(cls, text: str, name: str = "puzzle") -> "Puzzle":
        return cls.from_json(json.loads(text), name=name)


# -- constructors ------------------------------------------------------------

ROOT_LABEL = "ε"


def _number_labels(levels: Iterable[Iterable[str]]) -> dict[str, int]:
    """Ids for the labels, level by level; a repeated label is an error."""
    labels = list(chain.from_iterable(levels))
    label_to_id = dict(zip(labels, range(len(labels))))
    if len(label_to_id) < len(labels):
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise PuzzleError(f"duplicate label {label!r}")
            seen.add(label)
    return label_to_id


def word_label(word: Sequence[str]) -> str:
    return "".join(word) if word else ROOT_LABEL


def _walk(letters: Iterable, depth: int, words: set | None = None, forbidden: set = frozenset()):
    """The level walk of a subshift language: level ``n + 1`` grows from
    level ``n``, pieces in id order, then ``letters`` in order.  ``w·a`` is a
    piece, with ``i = w``, when ``f(w)`` has an ``a``-child (its suffix link,
    which is its ``f``) and it is in ``words`` or, without ``words``, not in
    ``forbidden``.  Returns the words, ``i`` and ``f`` by id and the first id
    of each level and past the last; stops after ``depth`` levels or an empty one."""
    word, i, f, starts = [()], [None], [None], [0, 1]
    kids = [(a, {None: 0}) for a in letters]  # kid[v]: the a-child of v; kid[f(root)]: the root
    lengths = set(map(len, forbidden))
    for n in range(1, depth + 1):
        for v in range(starts[-2], starts[-1]):
            w, fv = word[v], f[v]
            for a, kid in kids:
                t = kid.get(fv)
                if t is None:
                    continue
                x = w + (a,)
                if x not in words if words is not None else n in lengths and x in forbidden:
                    continue
                kid[v] = len(word)
                word.append(x)
                i.append(v)
                f.append(t)
        starts.append(len(word))
        if starts[-1] == starts[-2]:
            break
    return word, i, f, starts


def from_subshift(words: Iterable, depth: int, name: str = "subshift") -> Puzzle:
    """Puzzle of a subshift language: levels are the words of each length,

    ``i`` drops the last letter and ``f`` drops the first.  The word set
    must contain the empty word and be closed under prefix and suffix up
    to the requested depth; longer words are ignored, and letters that are
    not strings go through ``str``.
    """
    if depth < 1:
        raise PuzzleError("depth must be >= 1")
    # a set of tuples holding the empty word is read as it is, never changed
    if isinstance(words, set) and () in words and set(map(type, words)) == {tuple}:
        wordset = words
    else:
        wordset = set(map(tuple, words))
        wordset.add(())
    # the walk's alphabet: a letter that is no length-1 word starts no piece
    letters = {w[0] for w in wordset if len(w) == 1}
    if not all(isinstance(a, str) for a in letters):
        wordset, letters = {tuple(map(str, w)) for w in wordset}, set(map(str, letters))
    word, i, f, starts = _walk(sorted(letters), depth, wordset)
    missed = wordset.difference(word) if len(word) < len(wordset) else ()
    if faults := [(len(w), w) for w in missed if len(w) <= depth]:
        if not all(isinstance(a, str) for a in set().union(*wordset)):
            # letters that are not strings sit in longer words only: coerce every word and walk again
            return from_subshift({tuple(map(str, w)) for w in wordset}, depth, name)
        # all words below the least missed one were reached, so it lacks its prefix or suffix
        least = min(faults)[1]
        kind = "prefix" if least[:-1] not in wordset else "suffix"
        raise PuzzleError(f"word set not {kind}-closed: {word_label(least)!r} lacks its {kind}")
    if starts[-1] == starts[-2]:
        raise PuzzleError(f"no words of length {len(starts) - 2}; depth {depth} unreachable")
    labels = [ROOT_LABEL, *map("".join, word[1:])]
    levels = [labels[a:b] for a, b in zip(starts, starts[1:])]
    return Puzzle._from_ids(levels, i, f, name)


def from_refinement(
    levels: Sequence[Sequence[str]],
    containing: Mapping[str, str],
    image_in: Mapping[str, str],
    name: str = "refinement",
) -> Puzzle:
    """Puzzle from an abstract partition refinement.

    ``levels[n]`` lists the elements of the n-th partition; for each
    element of ``levels[n+1]``, ``containing`` names its parent in
    ``levels[n]`` and ``image_in`` the element of ``levels[n]`` containing
    its image.  The refinement is accepted iff :meth:`Puzzle.validate`
    reports nothing but commutation violations.  A key or value of either
    mapping that no level lists raises :class:`PuzzleError` naming the
    mapping, before anything else is checked; fewer than two levels or a
    duplicate label raise it from the constructor; a root level of other
    than one element and a missing or level-skipping assignment (a map on
    the root included) raise it listing every such violation.
    """
    elements = {x for level in levels for x in level}
    for which, mapping in (("containing", containing), ("image_in", image_in)):
        if unknown := [x for pair in mapping.items() for x in pair if x not in elements]:
            raise PuzzleError(f"{which} mentions unknown element {unknown[0]!r}")
    p = Puzzle(levels, containing, image_in, name=name)
    faults = [str(v) for v in p.validate().violations if v.kind != "commutation"]
    if faults:
        raise PuzzleError("not a partition refinement: " + "; ".join(faults))
    return p


def dual(p: Puzzle) -> Puzzle:
    """The dual puzzle: exchange the maps ``i`` and ``f``."""
    return Puzzle(
        [[p.label(x) for x in level] for level in p.levels],
        {p.label(x): p.label(p.f(x)) for n in range(1, p.depth + 1) for x in p.level(n)},
        {p.label(x): p.label(p.i(x)) for n in range(1, p.depth + 1) for x in p.level(n)},
        name=p.name + "*",
    )


# -- combinatorial metric ----------------------------------------------------


def distance(p: Puzzle, v: int, w: int) -> DyadicDistance:
    """Combinatorial distance ``2^-n``, ``n`` the deepest common i-ancestor

    level; zero exactly on coincidence.
    """
    if v == w:
        return DyadicDistance.zero()
    nv, nw = p.order(v), p.order(w)
    m = min(nv, nw)
    a, b = p.i_iter(v, nv - m), p.i_iter(w, nw - m)
    k = m
    while a != b:
        a, b = p.i(a), p.i(b)
        k -= 1
    return DyadicDistance(k)


def bowen_ball(p: Puzzle, v: int, eps: DyadicDistance, n: int) -> frozenset[int]:
    """All pieces ``w`` with ``d(f^k w, f^k v) <= eps`` for every

    ``0 <= k < min(n, |v|, |w|)``.  Balls are closed at the dyadic
    radius; the strict ball at ``2^-e`` is the closed ball at
    ``2^-(e+1)``.  The comparison window follows the order of both
    pieces, so very short pieces make for large balls.
    """
    def inside(w: int) -> bool:
        a, b = v, w
        for _ in range(min(n, p.order(v), p.order(w))):
            if distance(p, a, b) > eps:
                return False
            a, b = p.f(a), p.f(b)
        return True

    return frozenset(filter(inside, p.pieces()))


def covering_number(p: Puzzle, pieces: Iterable[int], eps: DyadicDistance, n: int) -> int:
    """Minimum number of ``(eps, n)``-balls needed to cover a same-order piece set.

    On pieces of one order ``m`` the ball relation is an equivalence:
    with ``eps = 2^-e``, ``w`` lies in the ball of ``v`` exactly when
    ``f^k w`` and ``f^k v`` have the same order-``e`` ancestor for every
    ``k < min(n, m)`` (the same piece when ``eps`` is zero), because the
    distance is an ultrametric.  The balls centered in the set are the
    classes of that key, so the covering number is the number of keys.
    Sets mixing orders raise :class:`PuzzleError`.
    """
    S = set(pieces)
    orders = sorted({p.order(v) for v in S})
    if len(orders) > 1:
        raise PuzzleError(f"covering_number needs a same-order set, got orders {orders}")
    e = eps.exponent
    keys = set()
    for v in S:
        key = []
        for _ in range(min(n, p.order(v))):
            key.append(v if e is None else p.project(v, e))
            v = p.f(v)
        keys.add(tuple(key))
    return len(keys)


@dataclass(frozen=True)
class EntropyCell:
    eps: DyadicDistance
    n: int
    count: int
    exact: bool  # always True: covering numbers are exact class counts
    rate: float  # (1/n) log max(count, 1); estimate, not a certified value


@dataclass(frozen=True)
class EntropyTable:
    """Covering-number table of (1/n) log r(eps, n, S_n) cells.

    ``estimate`` reports the max rate at the smallest sampled epsilon; it
    is a sampled stand-in for a limsup and is labeled accordingly.
    """

    cells: tuple[EntropyCell, ...]
    label: str = "estimate"

    def rates_at(self, eps: DyadicDistance) -> list[float]:
        return [c.rate for c in self.cells if c.eps == eps]

    @property
    def estimate(self) -> float:
        if not self.cells:
            return 0.0
        smallest = min(c.eps for c in self.cells)
        return max(self.rates_at(smallest), default=0.0)


def sequence_entropy(
    p: Puzzle,
    family: Callable[[int], Iterable[int]] | Mapping[int, Iterable[int]],
    eps_list: Sequence[DyadicDistance],
    n_range: Sequence[int],
) -> EntropyTable:
    """Entropy estimate table for an indexed family ``S_n`` of piece sets.

    Empty sets contribute rate 0 through the ``log max(count, 1)``
    convention.  No extrapolation is performed.  Raises
    :class:`PuzzleError` on ``n < 1``.
    """
    if any(n < 1 for n in n_range):
        raise PuzzleError(f"entropy rates need n >= 1, got {sorted(n_range)}")
    getter = family.get if isinstance(family, Mapping) else family
    cells = []
    for eps in eps_list:
        for n in n_range:
            count = covering_number(p, getter(n) or (), eps, n)
            cells.append(EntropyCell(eps, n, count, True, math.log(max(count, 1)) / n))
    return EntropyTable(tuple(cells))
