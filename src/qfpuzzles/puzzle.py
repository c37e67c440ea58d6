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

    def by_kind(self, kind: str) -> list[Violation]:
        return [v for v in self.violations if v.kind == kind]

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
        if exponent is not None and exponent < 0:
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

    def halved(self) -> "DyadicDistance":
        if self.exponent is None:
            return self
        return DyadicDistance(self.exponent + 1)

    def doubled(self) -> Fraction:
        return 2 * self.value()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicDistance):
            return NotImplemented
        return self.exponent == other.exponent

    def __lt__(self, other: "DyadicDistance") -> bool:
        return self.value() < other.value()

    def __hash__(self):
        return hash(self.exponent)

    def __repr__(self) -> str:
        return "DyadicDistance(zero)" if self.is_zero else f"DyadicDistance(2^-{self.exponent})"


class Puzzle:
    """Immutable leveled piece structure with maps ``i`` and ``f``.

    The constructor interns pieces and indexes preimages but does not
    enforce the axioms; :meth:`validate` reports violations as data so
    that deliberately broken puzzles can be built for testing.
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
        self.name = name
        self.depth = len(levels) - 1
        labels: list[str] = []
        level_of: list[int] = []
        self._label_to_id: dict[str, int] = {}
        level_ids: list[tuple[int, ...]] = []
        for n, level in enumerate(levels):
            ids = []
            for label in level:
                if label in self._label_to_id:
                    raise PuzzleError(f"duplicate label {label!r}")
                pid = len(labels)
                self._label_to_id[label] = pid
                labels.append(label)
                level_of.append(n)
                ids.append(pid)
            level_ids.append(tuple(ids))
        self._labels = tuple(labels)
        self._level_of = tuple(level_of)
        self.levels = tuple(level_ids)

        def resolve(mapping: Mapping[str, str], which: str) -> dict[int, int]:
            out = {}
            for src, dst in mapping.items():
                if src not in self._label_to_id:
                    raise PuzzleError(f"{which}-map source {src!r} is not a piece")
                if dst not in self._label_to_id:
                    raise PuzzleError(f"{which}-map target {dst!r} is not a piece")
                out[self._label_to_id[src]] = self._label_to_id[dst]
            return out

        self._i = resolve(i_map, "i")
        self._f = resolve(f_map, "f")

        self._i_preimages: dict[int, tuple[int, ...]] = {}
        buckets: dict[int, list[int]] = {}
        for src in sorted(self._i):
            buckets.setdefault(self._i[src], []).append(src)
        for tgt, srcs in buckets.items():
            self._i_preimages[tgt] = tuple(srcs)

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
        try:
            return self._i[piece]
        except KeyError:
            raise PuzzleError(f"i undefined on {self.label(piece)!r}") from None

    def f(self, piece: int) -> int:
        try:
            return self._f[piece]
        except KeyError:
            raise PuzzleError(f"f undefined on {self.label(piece)!r}") from None

    def i_iter(self, piece: int, k: int) -> int:
        for _ in range(k):
            piece = self.i(piece)
        return piece

    def f_iter(self, piece: int, k: int) -> int:
        for _ in range(k):
            piece = self.f(piece)
        return piece

    def i_preimages(self, piece: int) -> tuple[int, ...]:
        return self._i_preimages.get(piece, ())

    def fibres(self, n: int) -> dict[tuple[int, int], list[int]]:
        """The order-``n`` pieces grouped by ``(i(v), f(v))``, in id order.

        Each key is an edge ``u -> v`` of the level-``n - 1`` transition
        graph; its fibre holds the pieces lifting that edge, which are
        each other's (R2) rivals.
        """
        out: dict[tuple[int, int], list[int]] = {}
        for v in self.levels[n]:
            out.setdefault((self.i(v), self.f(v)), []).append(v)
        return out

    def project(self, piece: int, n: int) -> int:
        """``i_n``: the order-``min(|v|, n)`` ancestor of a piece."""
        drop = max(0, self.order(piece) - n)
        return self.i_iter(piece, drop)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every axiom; violations are returned, never raised."""
        out: list[Violation] = []
        if len(self.levels[0]) != 1:
            out.append(
                Violation("multi-root", "V_0", f"V_0 has {len(self.levels[0])} elements, expected 1")
            )
        for n in range(1, self.depth + 1):
            for piece in self.levels[n]:
                for which, mapping in (("i", self._i), ("f", self._f)):
                    if piece not in mapping:
                        out.append(
                            Violation("missing-map", self.label(piece), f"{which} is undefined")
                        )
                        continue
                    tgt = mapping[piece]
                    if self.order(tgt) != n - 1:
                        out.append(
                            Violation(
                                "level-skip",
                                self.label(piece),
                                f"{which} maps order {n} to order {self.order(tgt)}",
                            )
                        )
        for piece in sorted(self._i):
            if self.order(piece) < 2 or piece not in self._f:
                continue
            fi = self._i.get(self._f[piece])
            if_ = self._f.get(self._i[piece])
            if fi is None or if_ is None:
                continue
            if fi != if_:
                out.append(
                    Violation(
                        "commutation",
                        self.label(piece),
                        f"i(f(v))={self.label(fi)!r} != f(i(v))={self.label(if_)!r}",
                    )
                )
        for piece in self.pieces():
            if self.order(piece) == 0:
                if piece in self._i or piece in self._f:
                    out.append(
                        Violation("level-skip", self.label(piece), "maps defined on the root")
                    )
        return ValidationReport(tuple(out))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "levels": [[self.label(p) for p in level] for level in self.levels],
            "i": {self.label(p): self.label(t) for p, t in sorted(self._i.items())},
            "f": {self.label(p): self.label(t) for p, t in sorted(self._f.items())},
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

    def with_f_override(self, overrides: Mapping[str, str]) -> "Puzzle":
        """Copy with some f-images replaced (test helper for broken puzzles)."""
        f_map = {self.label(p): self.label(t) for p, t in self._f.items()}
        f_map.update(overrides)
        return Puzzle(
            [[self.label(p) for p in level] for level in self.levels],
            {self.label(p): self.label(t) for p, t in self._i.items()},
            f_map,
            name=self.name + "+override",
        )


# -- constructors ------------------------------------------------------------

ROOT_LABEL = "ε"


def _as_word(w) -> tuple[str, ...]:
    if isinstance(w, str):
        return tuple(w)
    return tuple(str(s) for s in w)


def word_label(word: Sequence[str]) -> str:
    return "".join(word) if word else ROOT_LABEL


def from_subshift(words: Iterable, depth: int, name: str = "subshift") -> Puzzle:
    """Puzzle of a subshift language: levels are the words of each length,

    ``i`` drops the last letter and ``f`` drops the first.  The word set
    must contain the empty word and be closed under prefix and suffix up
    to the requested depth.
    """
    if depth < 1:
        raise PuzzleError("depth must be >= 1")
    wordset = {_as_word(w) for w in words}
    wordset.add(())
    by_len: dict[int, list[tuple[str, ...]]] = {}
    for w in wordset:
        by_len.setdefault(len(w), []).append(w)
    for n in range(1, depth + 1):
        for w in by_len.get(n, []):
            if w[:-1] not in wordset:
                raise PuzzleError(f"word set not prefix-closed: {word_label(w)!r} lacks its prefix")
            if w[1:] not in wordset:
                raise PuzzleError(f"word set not suffix-closed: {word_label(w)!r} lacks its suffix")
    levels = [[ROOT_LABEL]]
    for n in range(1, depth + 1):
        level = sorted(by_len.get(n, []))
        if not level:
            raise PuzzleError(f"no words of length {n}; depth {depth} unreachable")
        levels.append([word_label(w) for w in level])
    i_map: dict[str, str] = {}
    f_map: dict[str, str] = {}
    for n in range(1, depth + 1):
        for w in by_len.get(n, []):
            i_map[word_label(w)] = word_label(w[:-1])
            f_map[word_label(w)] = word_label(w[1:])
    return Puzzle(levels, i_map, f_map, name=name)


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
    its image.  Level-skipping assignments are rejected.
    """
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
    members = []
    for w in p.pieces():
        horizon = min(n, p.order(v), p.order(w))
        a, b = v, w
        inside = True
        for _ in range(horizon):
            if distance(p, a, b) > eps:
                inside = False
                break
            a, b = p.f(a), p.f(b)
        if inside:
            members.append(w)
    return frozenset(members)


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
